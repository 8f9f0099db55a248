"""Shared helpers for the test suite: brute-force oracles, generators
and a type-exact comparison view.

Since the differential-testing subsystem landed, the reference
implementations live in :mod:`repro.testing` (oracles, generators,
laws) where both the test suite and the ``repro fuzz`` harness share
them.  This module keeps the historical names as thin aliases so
existing tests keep reading naturally.
"""

from __future__ import annotations

from typing import Any, Set, Tuple

from repro.core import LTS
from repro.testing import (
    bounded_traces,
    branching_bisimulation_relation,
    is_trace_of,
    lts_strategy,
    tau_heavy_lts_strategy,
    weak_bisimulation_relation,
)

__all__ = [
    "bounded_traces",
    "is_trace_of",
    "lts_strategy",
    "tau_heavy_lts_strategy",
    "naive_branching_bisimulation",
    "naive_weak_bisimulation",
    "typed",
]


def naive_branching_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest branching bisimulation by naive fixpoint (Definition 4.1)."""
    return branching_bisimulation_relation(lts)


def naive_weak_bisimulation(lts: LTS) -> Set[Tuple[int, int]]:
    """Greatest weak bisimulation by naive fixpoint (Milner)."""
    return weak_bisimulation_relation(lts)


def typed(value: Any) -> Any:
    """``value`` with the type of every nested item made explicit, so
    ``==`` on the result is type-exact (``False`` never equals ``0``)."""
    if isinstance(value, tuple):
        return (type(value), tuple(map(typed, value)))
    return (type(value), value)
