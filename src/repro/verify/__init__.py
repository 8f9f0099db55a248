"""Verification pipelines: the two methods of Fig. 1.

* :func:`check_linearizability` -- Theorem 5.3 (quotient + refinement)
* :func:`check_lock_freedom_auto` -- Theorem 5.9 (object vs quotient,
  divergence-sensitive)
* :func:`check_lock_freedom_abstract` -- Theorem 5.8 (object vs
  abstract program, divergence-sensitive)
* :func:`check_linearizability_reachability` -- the independent second
  verdict engine (BEEH reduction to state reachability)
* :class:`Job` / :func:`run_job` / :func:`render` -- one ``lin`` /
  ``lockfree`` / ``explore`` request answered and printed the same way
  by the CLI and the service daemon
"""

from .linearizability import LinearizabilityResult, check_linearizability
from .reachability import (
    ReachabilityResult,
    ReachabilitySearch,
    check_linearizability_reachability,
    reachability_search,
    reachability_search_streaming,
)
from .lockfree import (
    AbstractLockFreedomResult,
    LockFreedomResult,
    check_lock_freedom_abstract,
    check_lock_freedom_auto,
)
from .obstruction import (
    ObstructionFreedomResult,
    check_obstruction_freedom,
    solo_tau_cycle_states,
    transition_thread,
)
from .jobs import Job, render, run_job

__all__ = [
    "LinearizabilityResult",
    "check_linearizability",
    "ReachabilityResult",
    "ReachabilitySearch",
    "check_linearizability_reachability",
    "reachability_search",
    "reachability_search_streaming",
    "AbstractLockFreedomResult",
    "LockFreedomResult",
    "check_lock_freedom_abstract",
    "check_lock_freedom_auto",
    "ObstructionFreedomResult",
    "check_obstruction_freedom",
    "solo_tau_cycle_states",
    "transition_thread",
    "Job",
    "render",
    "run_job",
]
