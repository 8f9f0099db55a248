"""One verification job, run the same way by the CLI and the daemon.

A :class:`Job` names one question -- linearizability (``lin``),
lock-freedom (``lockfree``) or plain exploration (``explore``) of one
registry object at given bounds.  :func:`run_job` answers it: it
explores the object system once, runs the verdict engine (or, for
``lin --method both``, the two engines) on that system, combines the
two verdicts, maps the outcome to an exit code and returns everything
as one ``repro.service-result/v1`` dict.  :func:`render` prints that
dict.  ``repro lin`` / ``repro lockfree``, their ``--degrade`` ladder
and the daemon behind ``repro submit`` all go through these names, so
a served verdict is the direct one by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core import ENGINES
from ..lang import ClientConfig
from ..lang.checkpoint import Checkpoint, CheckpointSink
from ..objects import get
from ..parallel import ParallelConfig, maybe_parallel_explore
from ..util.budget import (
    EXIT_DISAGREEMENT,
    EXIT_INTERRUPTED,
    REASON_INTERRUPTED,
    TRUE,
    UNKNOWN,
    BudgetExhausted,
    Exhaustion,
    RunBudget,
    combined_verdict,
    exit_code_for,
)
from ..util.metrics import Stats
from .linearizability import check_linearizability
from .lockfree import check_lock_freedom_auto
from .reachability import check_linearizability_reachability

#: Schema tag carried by every result dict.
RESULT_SCHEMA = "repro.service-result/v1"

#: Verdict of a ``both`` job whose two engines decided differently.
#: Never ``UNKNOWN``, so the degrade ladder stops rather than retrying
#: an engine bug away.
DISAGREE = "DISAGREE"

#: Job kinds, and the methods each accepts (the first is the default).
KINDS = ("lin", "lockfree", "explore")
METHODS = {
    "lin": ("quotient", "reachability", "both"),
    "lockfree": ("union", "tau-cycle"),
}

#: The ``--stats`` pipeline each engine records into.
_PIPELINES = {
    "quotient": "linearizability",
    "reachability": "reachability",
    "union": "lock-freedom",
    "tau-cycle": "lock-freedom",
    None: "explore",
}

_LABELS = {"lin": "linearizable", "lockfree": "lock-free",
           "explore": "explored"}


@dataclass(frozen=True)
class Job:
    """One verification request, validated on construction.

    Raises ``ValueError`` for an unknown kind, object, method or
    refinement engine, or for non-positive bounds -- the daemon builds
    one from every submission, so a malformed request is rejected
    before it reaches the job queue.
    """

    kind: str
    key: str
    threads: int = 2
    ops: int = 2
    values: int = 2
    max_states: Optional[int] = None
    method: Optional[str] = None
    reduce: bool = True
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r} (expected {KINDS})"
            )
        try:
            get(self.key)
        except KeyError:
            raise ValueError(f"unknown benchmark object {self.key!r}")
        if self.threads < 1 or self.ops < 1 or self.values < 1:
            raise ValueError("threads/ops/values must all be >= 1")
        methods = METHODS.get(self.kind)
        method = self.method
        if methods is not None:
            if method is None:
                method = methods[0]
            if method not in methods:
                raise ValueError(f"unknown {self.kind} method {method!r}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (expected {ENGINES})"
            )
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "threads", int(self.threads))
        object.__setattr__(self, "ops", int(self.ops))
        object.__setattr__(self, "values", int(self.values))
        object.__setattr__(self, "reduce", bool(self.reduce))

    def client_config(self) -> ClientConfig:
        """The most-general-client bounds of this job."""
        return ClientConfig(
            num_threads=self.threads,
            ops_per_thread=self.ops,
            workload=get(self.key).default_workload(self.values),
            max_states=self.max_states,
        )


def exit_code(verdict: str, reason: Optional[str] = None) -> int:
    """The process exit code of a verdict: 0/1/2, 3 on engine
    disagreement, 130 when ``reason`` says the run was interrupted."""
    if verdict == DISAGREE:
        return EXIT_DISAGREEMENT
    if reason == REASON_INTERRUPTED:
        return EXIT_INTERRUPTED
    return exit_code_for(verdict)


def job_result(job: Job, **fields: Any) -> Dict[str, Any]:
    """A v1 result dict for ``job``: its identity, ``fields`` and the
    exit code of the verdict they carry."""
    result: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "kind": job.kind,
        "key": job.key,
        "method": job.method,
        "threads": job.threads,
        "ops": job.ops,
        "values": job.values,
        "cached": False,
        "resumed": False,
        "verdict": UNKNOWN,
        "counterexample": None,
        "diagnostic": None,
        "exhaustion": None,
        "error": None,
        "seconds": 0.0,
    }
    result.update(fields)
    exhaustion = result["exhaustion"]
    result["exit_code"] = exit_code(
        result["verdict"], exhaustion["reason"] if exhaustion else None
    )
    return result


def _exhaustion_dict(exhaustion: Optional[Exhaustion]) -> Optional[Dict[str, Any]]:
    if exhaustion is None:
        return None
    return {
        "reason": exhaustion.reason,
        "phase": exhaustion.phase,
        "render": exhaustion.render(),
    }


def run_job(
    job: Job,
    budget: Optional[RunBudget] = None,
    *,
    parallel: Optional[ParallelConfig] = None,
    stats: Optional[Callable[[str], Optional[Stats]]] = None,
    checkpoint: Optional[CheckpointSink] = None,
    resume: Optional[Checkpoint] = None,
    spec_checkpoint: Optional[CheckpointSink] = None,
    spec_resume: Optional[Checkpoint] = None,
    on_the_fly: bool = False,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Answer ``job`` and return its v1 result dict (never raises on
    budget exhaustion: the verdict is then ``UNKNOWN``).

    The object system is explored once -- serially, or sharded when
    ``parallel`` is given -- and every engine of ``job.method`` checks
    that one system.  A single engine explores for itself (which lets
    ``on_the_fly`` fuse exploration with the check); two engines, or
    an exploration under ``checkpoint`` / ``resume``, share one system
    explored here, and ``progress`` then receives an ``explored``
    event.  ``stats`` maps a pipeline name (``linearizability t=2
    ops=2 v=2`` ...) to the sink that pipeline records into.
    ``spec_checkpoint`` / ``spec_resume`` checkpoint the specification
    generation of the quotient engine.
    """
    t0 = time.perf_counter()
    bench = get(job.key)
    program = bench.build(job.threads)
    config = job.client_config()
    names: List[Optional[str]] = (
        ["quotient", "reachability"] if job.method == "both" else [job.method]
    )
    sinks = [
        stats(f"{_PIPELINES[name]} t={job.threads} ops={job.ops} "
              f"v={job.values}") if stats is not None else None
        for name in names
    ]
    impl = None
    explore_seconds = 0.0
    shared = len(names) > 1 or checkpoint is not None or resume is not None
    if job.kind == "explore" or shared:
        try:
            impl = maybe_parallel_explore(
                program, config, parallel=parallel, stats=sinks[0],
                budget=budget, checkpoint=checkpoint, resume=resume,
            )
        except BudgetExhausted as exc:
            exhausted = {"verdict": UNKNOWN,
                         "exhaustion": _exhaustion_dict(exc.exhaustion)}
            return _combine(job, [dict(exhausted) for _ in names], t0, resume)
        explore_seconds = time.perf_counter() - t0
        if progress is not None:
            progress({"stage": "explored", "impl_states": impl.num_states,
                      "resumed": resume is not None})
        if job.kind == "explore":
            explored = {"verdict": TRUE, "impl_states": impl.num_states,
                        "impl_transitions": impl.num_transitions}
            return _combine(job, [explored], t0, resume)
    common = dict(
        workload=config.workload, max_states=job.max_states, budget=budget,
        parallel=parallel, impl_system=impl,
    )
    spec = bench.spec() if job.kind == "lin" else None
    engines = []
    for name, sink in zip(names, sinks):
        if name == "quotient":
            res = check_linearizability(
                program, spec, job.threads, job.ops, stats=sink,
                reduce=job.reduce, engine=job.engine, on_the_fly=on_the_fly,
                spec_checkpoint=spec_checkpoint, spec_resume=spec_resume,
                **common,
            )
            engine = {"quotient_states": res.impl_quotient_states,
                      "spec_states": res.spec_states,
                      "early_exit": res.early_exit}
        elif name == "reachability":
            res = check_linearizability_reachability(
                program, spec, job.threads, job.ops, stats=sink,
                on_the_fly=on_the_fly, **common,
            )
            engine = {"product_states": res.product_states,
                      "monitor_states": res.monitor_states,
                      "on_the_fly": res.on_the_fly}
        else:
            res = check_lock_freedom_auto(
                program, job.threads, job.ops, method=name, stats=sink,
                reduce=job.reduce, engine=job.engine, **common,
            )
            engine = {"quotient_states": res.quotient_states,
                      "diagnostic": (res.render_diagnostic()
                                     if res.lock_free is False else None)}
        if job.kind == "lin":
            engine.update(
                counterexample=(res.render_counterexample()
                                if res.linearizable is False else None),
                states_expanded=res.states_expanded,
                engine_seconds=res.total_seconds + explore_seconds,
            )
        engines.append(dict(
            engine, engine=name, verdict=res.verdict,
            exhaustion=_exhaustion_dict(res.exhaustion),
            impl_states=res.impl_states,
        ))
    return _combine(job, engines, t0, resume)


def _combine(job: Job, engines: List[Dict[str, Any]], t0: float,
             resume: Optional[Checkpoint]) -> Dict[str, Any]:
    """Fold the engine outcomes into the job's result dict.

    One engine's fields become the result's own; two engines (``lin
    --method both``) are kept side by side under their names, with the
    :func:`~repro.util.budget.combined_verdict` on top -- the one place
    the two verdicts meet.
    """
    fields: Dict[str, Any] = dict(
        resumed=resume is not None, seconds=time.perf_counter() - t0,
    )
    if len(engines) == 1:
        return job_result(job, **engines[0], **fields)
    quotient, reachability = engines
    if quotient.get("impl_states") != reachability.get("impl_states"):
        raise AssertionError(
            "shared exploration diverged between engines: quotient saw "
            f"{quotient['impl_states']} states, reachability "
            f"{reachability['impl_states']}"
        )
    verdict, disagree = combined_verdict(
        quotient["verdict"], reachability["verdict"]
    )
    return job_result(
        job,
        verdict=DISAGREE if disagree else verdict,
        disagree=disagree,
        exhaustion=quotient["exhaustion"] or reachability["exhaustion"],
        quotient=quotient,
        reachability=reachability,
        counterexample=quotient.get("counterexample"),
        **fields,
    )


def render(result: Dict[str, Any], label: Optional[str] = None) -> None:
    """Print a result dict: the verdict block of ``repro lin`` /
    ``lockfree`` (or of a served ``explore``), preceded by a note when
    the result came from the service cache or a resumed checkpoint."""
    notes = []
    if result.get("cached"):
        notes.append("served from cache (no re-exploration)")
    if result.get("resumed"):
        notes.append("resumed from checkpoint")
    if notes:
        print("note: " + "; ".join(notes))
    if result.get("error"):
        print(f"job error: {result['error']}")
        return
    label = label or _LABELS[result["kind"]]
    if result["method"] != "both":
        _render_engine(result, result["kind"], label)
        return
    for name in ("quotient", "reachability"):
        _render_engine(result[name], "lin", f"{label} [{name}]")
    if result["disagree"]:
        print(
            "ERROR: verdict engines disagree -- "
            f"quotient={result['quotient']['verdict']} "
            f"reachability={result['reachability']['verdict']} "
            "(this is an engine bug, not a property of the object)"
        )
    else:
        print(f"{label}: {result['verdict']}  (both engines agree)")


def _render_engine(res: Dict[str, Any], kind: str, label: str) -> None:
    # ``.get`` for the keys results cached by older daemons lack.
    if res.get("exhaustion") is not None:
        print(f"{label}: UNKNOWN -- {res['exhaustion']['render']}")
        return
    if kind == "explore":
        print(f"{res['key']}: {res['impl_states']} states, "
              f"{res['impl_transitions']} transitions")
        return
    if kind == "lockfree":
        print(f"{label}: {res['verdict']}  ({res['seconds']:.2f}s)")
        if res.get("diagnostic"):
            print(res["diagnostic"])
        return
    impl_states = res["impl_states"]
    if res.get("engine") == "reachability":
        if res.get("on_the_fly"):
            print(f"on-the-fly: expanded {res['states_expanded']} of "
                  f"{impl_states} interned states")
        print(f"states {impl_states} -> product {res['product_states']} "
              f"({res['monitor_states']} monitor sets)")
    elif res.get("early_exit"):
        print(f"on-the-fly early exit: mismatch after expanding "
              f"{res['states_expanded']} states "
              f"({impl_states} interned, no quotient built)")
    else:
        quotient = res["quotient_states"]
        factor = impl_states / quotient if quotient else float("inf")
        print(f"states {impl_states} -> quotient {quotient} "
              f"({factor:.1f}x)")
    print(f"{label}: {res['verdict']}  ({res['engine_seconds']:.2f}s)")
    if res.get("counterexample"):
        print(res["counterexample"])
