"""Linearizability checking via branching-bisimulation quotients.

The paper's first method (Fig. 1(a), Theorem 5.3): an object system is
linearizable w.r.t. its linearizable specification iff the quotient of
the object under branching bisimilarity trace-refines the quotient of
the specification.  The quotients are orders of magnitude smaller, so
the PSPACE-complete refinement check runs on tiny systems -- and no
linearization points are ever identified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, List, Optional

from ..core import (
    AnyLTS,
    PartialProductChecker,
    branching_partition,
    quotient_lts,
    trace_refines,
)
from ..lang import (
    ClientConfig,
    ObjectProgram,
    SpecObject,
    StreamingExplorer,
    spec_lts,
)
from ..lang.checkpoint import Checkpoint, CheckpointSink
from ..lang.client import Workload
from ..parallel import ParallelConfig, maybe_parallel_explore
from ..util.budget import BudgetExhausted, Exhaustion, RunBudget, verdict_of
from ..util.metrics import Stats, stage


@dataclass
class LinearizabilityResult:
    """Outcome of the Theorem 5.3 pipeline.

    ``counterexample`` is a history (sequence of call/ret action
    labels) the implementation can produce but the specification
    cannot -- e.g. the HM-list double remove.

    ``linearizable`` is three-valued: ``True`` / ``False`` when the
    pipeline completed, ``None`` when a run budget was exhausted first
    -- in which case ``exhaustion`` names the phase, the limit hit and
    the progress made (``verdict`` renders the three cases as
    ``TRUE`` / ``FALSE`` / ``UNKNOWN``).
    """

    object_name: str
    linearizable: Optional[bool]
    counterexample: Optional[List[Hashable]]
    impl_states: int
    impl_quotient_states: int
    spec_states: int
    spec_quotient_states: int
    num_threads: int
    ops_per_thread: int
    explore_seconds: float
    quotient_seconds: float
    refinement_seconds: float
    #: The metrics sink the pipeline recorded into (None when disabled).
    stats: Optional[Stats] = None
    #: Why the pipeline stopped early (None when it completed).
    exhaustion: Optional[Exhaustion] = None
    #: Whether the pipeline ran with the streaming early-exit lane.
    on_the_fly: bool = False
    #: True when the early-exit lane decided FALSE on the partial
    #: product before exploration finished; ``impl_states`` then counts
    #: only the states streamed up to the mismatch and the quotient
    #: fields are zero (no quotient was ever built).
    early_exit: bool = False
    #: States the stream expanded before the verdict (fused runs only).
    states_expanded: Optional[int] = None

    @property
    def verdict(self) -> str:
        """``TRUE`` / ``FALSE`` / ``UNKNOWN``."""
        return verdict_of(self.linearizable)

    @property
    def reduction_factor(self) -> float:
        """How much smaller the quotient is than the object system."""
        if self.impl_quotient_states == 0:
            return float("inf")
        return self.impl_states / self.impl_quotient_states

    @property
    def total_seconds(self) -> float:
        return self.explore_seconds + self.quotient_seconds + self.refinement_seconds

    def render_counterexample(self) -> str:
        if self.counterexample is None:
            return "<linearizable: no counterexample>"
        lines = ["<initial state>"]
        for label in self.counterexample:
            lines.append(f'  "{label}"')
        lines.append("  -- specification cannot match the last action --")
        return "\n".join(lines)


def check_linearizability(
    program: ObjectProgram,
    spec: SpecObject,
    num_threads: int = 2,
    ops_per_thread: int = 2,
    workload: Optional[Workload] = None,
    max_states: Optional[int] = None,
    stats: Optional[Stats] = None,
    reduce: bool = True,
    budget: Optional[RunBudget] = None,
    parallel: Optional[ParallelConfig] = None,
    spec_checkpoint: Optional[CheckpointSink] = None,
    spec_resume: Optional[Checkpoint] = None,
    engine: Optional[str] = None,
    on_the_fly: bool = False,
    impl_system: Optional[AnyLTS] = None,
) -> LinearizabilityResult:
    """Run the full Theorem 5.3 pipeline for one object.

    Generates the object system and the specification system under the
    same most-general client, quotients both under branching
    bisimilarity, and checks trace refinement between the quotients.
    ``reduce`` (default on) compresses silent structure with
    :func:`repro.core.reduce.reduce_lts` before each refinement; the
    partitions it yields are identical, only faster to compute.
    ``engine`` selects the refinement engine
    (:data:`repro.core.splitter.ENGINES`; ``None`` means the default) --
    both engines compute the same partitions.

    With a :class:`~repro.util.metrics.Stats` sink the pipeline records
    ``explore`` / ``spec`` / ``quotient`` (with nested ``reduce`` /
    ``refinement``) / ``check`` stages plus state, transition and sweep
    counters; the sink is attached to the result as ``result.stats``.

    With a :class:`~repro.util.budget.RunBudget` the pipeline is
    governed end to end: exhaustion in any phase yields a result with
    ``linearizable=None`` (verdict ``UNKNOWN``) carrying the exhaustion
    record -- it never raises.

    ``parallel`` (a :class:`~repro.parallel.ParallelConfig`; ``None``
    means serial) shards the object-system exploration across worker
    processes; the result is byte-identical to serial exploration.  ``spec_checkpoint`` /
    ``spec_resume`` checkpoint the specification-LTS generation so an
    interrupted ``lin`` run does not regenerate it from scratch.

    ``on_the_fly=True`` adds the streaming early-exit lane: the object
    system is produced by a :class:`~repro.lang.StreamingExplorer` and
    every streamed transition is fed to an incremental partial-product
    mismatch check (:class:`~repro.core.PartialProductChecker`) against
    the specification system.  A detected mismatch is a sound FALSE --
    the pipeline returns it immediately with a counterexample, having
    expanded only a prefix of the state space (``early_exit=True``).
    The check is incomplete in the other direction, so a mismatch-free
    drain falls back to the unchanged full explore + splitter +
    refinement pipeline for the TRUE verdict.  Streaming consumes
    expansions in order, which the sharded supervisor cannot reproduce,
    so ``parallel`` is ignored in this mode (documented serial degrade:
    :data:`repro.parallel.STREAMING_SERIAL_REASON`; the stats sink
    counts ``onthefly_serial_degradations``).

    ``impl_system``, when given, is a pre-explored object system to
    check instead of exploring here (the shared-exploration path of
    :func:`repro.verify.jobs.run_job`); ``on_the_fly`` and ``parallel``
    are ignored with a shared system.
    """
    if workload is None:
        raise ValueError("a workload (method/argument universe) is required")
    config = ClientConfig(
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        workload=workload,
        max_states=max_states,
    )
    fused = on_the_fly and impl_system is None
    explorer: Optional[StreamingExplorer] = None
    impl_states = impl_quotient_states = 0
    spec_states = spec_quotient_states = 0
    t0 = t1 = t2 = t3 = time.perf_counter()
    try:
        if fused:
            if parallel is not None and stats is not None:
                stats.count("onthefly_serial_degradations", 1)
            # The mismatch check needs the spec system first.
            spec_system = spec_lts(
                spec, num_threads, ops_per_thread, workload,
                max_states=max_states, stats=stats, budget=budget,
                checkpoint=spec_checkpoint, resume=spec_resume,
            )
            spec_states = spec_system.num_states
            explorer = StreamingExplorer(program, config, budget=budget)
            checker = PartialProductChecker(spec_system, budget=budget)
            checker.start(explorer.init_id)
            with stage(stats, "explore+check"):
                while (events := explorer.expand_next()) is not None:
                    if checker.feed_events(events):
                        break
                if stats is not None:
                    stats.count("states", explorer.num_states)
                    stats.count("transitions", explorer.num_transitions)
                    stats.count("macro_states", checker.macro_states)
            impl_states = explorer.num_states
            if checker.mismatched:
                t1 = time.perf_counter()
                return LinearizabilityResult(
                    object_name=program.name,
                    linearizable=False,
                    counterexample=checker.counterexample,
                    impl_states=impl_states,
                    impl_quotient_states=0,
                    spec_states=spec_states,
                    spec_quotient_states=0,
                    num_threads=num_threads,
                    ops_per_thread=ops_per_thread,
                    explore_seconds=t1 - t0,
                    quotient_seconds=0.0,
                    refinement_seconds=0.0,
                    stats=stats,
                    on_the_fly=True,
                    early_exit=True,
                    states_expanded=explorer.states_expanded,
                )
            impl = explorer.freeze()
        else:
            if impl_system is not None:
                impl = impl_system
                if stats is not None:
                    stats.count("shared_impl_states", impl.num_states)
            else:
                impl = maybe_parallel_explore(
                    program, config, parallel=parallel, stats=stats,
                    budget=budget,
                )
            impl_states = impl.num_states
            spec_system = spec_lts(
                spec, num_threads, ops_per_thread, workload,
                max_states=max_states, stats=stats, budget=budget,
                checkpoint=spec_checkpoint, resume=spec_resume,
            )
            spec_states = spec_system.num_states
        t1 = time.perf_counter()
        with stage(stats, "quotient"):
            impl_quotient = quotient_lts(
                impl,
                branching_partition(impl, stats=stats, reduce=reduce,
                                    budget=budget, engine=engine),
            )
            impl_quotient_states = impl_quotient.lts.num_states
            spec_quotient = quotient_lts(
                spec_system,
                branching_partition(spec_system, stats=stats, reduce=reduce,
                                    budget=budget, engine=engine),
            )
            spec_quotient_states = spec_quotient.lts.num_states
            if stats is not None:
                stats.count("impl_states", impl_quotient.lts.num_states)
                stats.count("spec_states", spec_quotient.lts.num_states)
        t2 = time.perf_counter()
        refinement = trace_refines(
            impl_quotient.lts, spec_quotient.lts, stats=stats, budget=budget
        )
        t3 = time.perf_counter()
    except BudgetExhausted as exc:
        now = time.perf_counter()
        if explorer is not None:
            impl_states = explorer.num_states
        return LinearizabilityResult(
            object_name=program.name,
            linearizable=None,
            counterexample=None,
            impl_states=impl_states,
            impl_quotient_states=impl_quotient_states,
            spec_states=spec_states,
            spec_quotient_states=spec_quotient_states,
            num_threads=num_threads,
            ops_per_thread=ops_per_thread,
            explore_seconds=(t1 - t0) if t1 > t0 else now - t0,
            quotient_seconds=(t2 - t1) if t2 > t1 else 0.0,
            refinement_seconds=0.0,
            stats=stats,
            exhaustion=exc.exhaustion,
            on_the_fly=fused,
            states_expanded=(
                explorer.states_expanded if explorer is not None else None
            ),
        )
    return LinearizabilityResult(
        object_name=program.name,
        linearizable=refinement.holds,
        counterexample=refinement.counterexample,
        impl_states=impl.num_states,
        impl_quotient_states=impl_quotient.lts.num_states,
        spec_states=spec_system.num_states,
        spec_quotient_states=spec_quotient.lts.num_states,
        num_threads=num_threads,
        ops_per_thread=ops_per_thread,
        explore_seconds=t1 - t0,
        quotient_seconds=t2 - t1,
        refinement_seconds=t3 - t2,
        stats=stats,
        on_the_fly=fused,
        states_expanded=(
            explorer.states_expanded if explorer is not None else None
        ),
    )

