"""Registry-wide parity: a verdict through serve+submit == the direct run.

The acceptance criterion for the service PR: for every object in the
registry, submitting through the daemon yields the same verdict, the
same exit-code mapping, and (for FALSE objects) the same rendered
counterexample as calling the pipeline directly -- the daemon adds
transport, queueing and caching, never a different answer.

Bounds mirror ``tests/verify/test_reachability_parity.py``: 2x2 where
that completes quickly, 2x1 for the heavyweight list objects.
"""

import pytest

from repro.objects import BENCHMARKS, get
from repro.service import DaemonConfig, ServiceClient, VerificationDaemon
from repro.util.budget import combined_verdict, exit_code_for
from repro.verify import (
    check_linearizability,
    check_linearizability_reachability,
    check_lock_freedom_auto,
)

#: (threads, ops) per object; default 2x2, heavy objects at 2x1.
_SMALL_BOUNDS = {
    "dglm_queue": (2, 1),
    "hm_list": (2, 1),
    "lazy_list": (2, 1),
    "ms_queue": (2, 1),
    "optimistic_list": (2, 1),
}

CASES = [
    (key, *_SMALL_BOUNDS.get(key, (2, 2)), "quotient")
    for key in sorted(BENCHMARKS)
] + [
    # The other two lin methods on one TRUE and one FALSE object.
    (key, 2, 2, method)
    for method in ("reachability", "both")
    for key in ("newcas", "hm_list_buggy")
]

#: Objects whose lock-freedom the registry marks decidable at 2x2;
#: a small slice keeps the lockfree leg cheap while covering both
#: verdicts and the diagnostic rendering.
_LOCKFREE_CASES = [
    ("treiber", "union"), ("newcas", "union"), ("treiber_hp_buggy", "union"),
    ("treiber", "tau-cycle"), ("treiber_hp_buggy", "tau-cycle"),
]


def _case_id(key, threads, ops, method):
    suffix = "" if method == "quotient" else f"_{method}"
    return f"{key}_{threads}x{ops}{suffix}"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service-parity")
    daemon = VerificationDaemon(DaemonConfig(
        socket=str(root / "svc.sock"),
        state_dir=str(root / "state"),
        queue_size=4,
        job_workers=1,
    ))
    endpoint = daemon.start()
    yield endpoint
    daemon.shutdown()
    daemon.join(timeout=60.0)


def _submit(endpoint, **request):
    with ServiceClient.connect(endpoint) as client:
        return client.submit_and_wait(request, timeout=120.0)


def _direct_lin(bench, threads, ops, method):
    """The engine results a direct run computes, quotient first."""
    bounds = dict(num_threads=threads, ops_per_thread=ops,
                  workload=bench.default_workload())
    results = []
    if method in ("quotient", "both"):
        results.append(check_linearizability(
            bench.build(threads), bench.spec(), **bounds))
    if method in ("reachability", "both"):
        results.append(check_linearizability_reachability(
            bench.build(threads), bench.spec(), **bounds))
    return results


@pytest.mark.parametrize(
    "key,threads,ops,method", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_lin_verdict_through_service_matches_direct(service, key, threads,
                                                    ops, method):
    results = _direct_lin(get(key), threads, ops, method)
    served = _submit(service, kind="lin", key=key, threads=threads, ops=ops,
                     method=method)

    verdict = results[0].verdict
    if method == "both":
        verdict, disagree = combined_verdict(*(r.verdict for r in results))
        assert not disagree
        for name, result in zip(("quotient", "reachability"), results):
            assert served[name]["verdict"] == result.verdict
            assert served[name]["counterexample"] == (
                result.render_counterexample()
                if result.linearizable is False else None
            )
    assert served["verdict"] == verdict
    assert served["exit_code"] == exit_code_for(verdict)
    direct = results[0]
    if direct.linearizable is False:
        # The rendered counterexample must be byte-identical: the CLI
        # prints exactly this string on both paths.
        assert served["counterexample"] == direct.render_counterexample()
    else:
        assert served["counterexample"] is None


@pytest.mark.parametrize(
    "key,method", _LOCKFREE_CASES,
    ids=[key if method == "union" else f"{key}_{method}"
         for key, method in _LOCKFREE_CASES],
)
def test_lockfree_verdict_through_service_matches_direct(service, key,
                                                         method):
    bench = get(key)
    direct = check_lock_freedom_auto(
        bench.build(2), num_threads=2, ops_per_thread=2,
        workload=bench.default_workload(), method=method,
    )
    served = _submit(service, kind="lockfree", key=key, method=method)

    assert served["verdict"] == direct.verdict
    assert served["exit_code"] == exit_code_for(direct.verdict)
    if direct.lock_free is False:
        assert served["diagnostic"] == direct.render_diagnostic()
    else:
        assert served["diagnostic"] is None
