"""Bench smoke: array-native CSR construction on the verdict path.

``treiber`` 2x2, pre-explored once, then ``check_lock_freedom_auto``
and ``check_linearizability`` with ``impl_system=``.  The gate is a
count, so host load cannot move it: inside ``disjoint_union`` and
``reduce_lts`` no transition goes through the per-edge builder
(``LTS._append``).  Both build their ``FrozenLTS`` from columns.  Both
verdicts must match the registry.

Before/after seconds per stage live in ``BENCH_lts.json``
(``scripts/bench_lts.py``).
"""

import sys

from repro.core import LTS, disjoint_union, reduce_lts
from repro.lang import ClientConfig, explore
from repro.objects import get
from repro.verify.linearizability import check_linearizability
from repro.verify.lockfree import check_lock_freedom_auto


def test_union_and_reduce_build_without_per_edge_appends(monkeypatch):
    bench = get("treiber")
    threads, ops = 2, 2
    workload = bench.default_workload()
    program = bench.build(threads)
    impl = explore(program, ClientConfig(threads, ops, workload))

    targets = {disjoint_union.__code__, reduce_lts.__code__}
    calls = {"total": 0, "inside": 0}
    original = LTS._append

    def counted(self, *args):
        calls["total"] += 1
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in targets:
                calls["inside"] += 1
                break
            frame = frame.f_back
        return original(self, *args)

    monkeypatch.setattr(LTS, "_append", counted)
    lockfree = check_lock_freedom_auto(
        program, threads, ops, workload=workload, impl_system=impl,
    )
    lin = check_linearizability(
        program, bench.spec(), threads, ops, workload=workload, impl_system=impl,
    )

    assert lockfree.lock_free == bench.expect_lock_free
    assert lin.linearizable == bench.expect_linearizable
    # The counter is live: the quotient is still built edge by edge.
    assert calls["total"] > 0
    assert calls["inside"] == 0, (
        f"{calls['inside']} per-edge appends inside disjoint_union/reduce_lts"
    )
