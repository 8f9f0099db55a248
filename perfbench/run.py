"""Pipeline benchmark of the verdict pipeline (``lin`` / ``lockfree`` /
``explore``), end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lin-serial --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``pass_s``,
``verdict_s_gmean``, ``peak_rss_mb``) and ``failed_frac``; ``--trace 1``
adds a traced pass and prints the per-layer metrics instead.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.  The exit code is 0 only when every job gave the
expected verdict, state counts and ``.aut`` digest.

The measuring itself happens in ``bench.py``, started in a fresh
interpreter with ``PYTHONHASHSEED`` set to the seed.  ``setup_s`` is the
median wall time of several fresh interpreters that import ``repro`` and
build the workload's inputs, plus the in-run pre-exploration of
``quotient-big``.  The closed loop is one client in one process running
one job at a time (``explore-par2`` adds two forked workers).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = HERE / "bench.py"
WORKLOADS = ("lin-serial", "explore-par2", "quotient-big", "bughunt-otf")
SETUP_PROBES = 7
RUN_DEADLINE_S = 170.0


def spawn(args: List[str], env: Dict[str, str], timeout: float) -> str:
    """Run ``bench.py`` to completion in its own session; return stdout.

    On timeout the whole process group (the forked ``repro.parallel``
    workers included) is killed and waited for.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH)] + args, env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, start_new_session=True, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: bench.py {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: bench.py {' '.join(args)} exited {proc.returncode}")
    return out


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def metric_specs() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m for m in spec[key]} for key in ("end_to_end", "per_layer")}


def print_table(title: str, rows: List[List[str]]) -> None:
    print(f"== {title}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Pipeline benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test instance sizes")
    parser.add_argument("--flip-expect", action="store_true",
                        help="invert every expected verdict (self-test only)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    specs = metric_specs()
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed), PYTHONPATH=str(ROOT / "src"))
    common = ["--workload", args.workload, "--size", args.size]

    probes: List[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            spawn(common + ["--seed", str(args.seed), "--seconds", "0", "--probe"],
                  env, RUN_DEADLINE_S)
            probes.append(time.perf_counter() - start)

    # Probes run before and after the measured child, so their median
    # samples the same stretch of time as the passes.
    if not args.trace:
        probe(SETUP_PROBES // 2)
    child = common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace)]
    if args.flip_expect:
        child.append("--flip-expect")
    out = spawn(child, env, RUN_DEADLINE_S - (time.perf_counter() - started))
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        probe(SETUP_PROBES - SETUP_PROBES // 2)

    passes = result["passes"] + ([result["traced_pass"]] if args.trace else [])
    jobs = [job for p in passes for job in p["jobs"]]
    attempted = len(jobs)
    failed = sum(1 for job in jobs if not job["ok"])

    untraced = result["passes"]
    pass_walls = [p["wall_s"] for p in untraced]
    per_job: Dict[str, List[float]] = {}
    for p in untraced:
        for job in p["jobs"]:
            per_job.setdefault(job["id"], []).append(job["seconds"])
    job_medians = {jid: statistics.median(times) for jid, times in per_job.items()}
    q1, _, q3 = quartiles(pass_walls)
    end_to_end = {
        "setup_s": statistics.median(probes) + result["preexplore_s"] if probes else None,
        "pass_s": statistics.median(pass_walls),
        "verdict_s_gmean": math.exp(statistics.fmean(
            math.log(t) for t in job_medians.values())),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }

    header = f"{args.workload} seed={args.seed} size={args.size}"
    rows = [["job", "median_s", "samples"]]
    rows += [[jid, f"{t:.4f}", str(len(per_job[jid]))] for jid, t in sorted(job_medians.items())]
    print_table(f"{header}: time to verdict per job (untraced)", rows)
    rows = [["metric", "value", "unit", "detail"]]
    if probes:
        rows.append(["setup_s", f"{end_to_end['setup_s']:.4f}", "s",
                     f"median of {len(probes)} fresh-interpreter setups "
                     f"({statistics.median(probes):.4f}s) + pre-explore "
                     f"{result['preexplore_s']:.4f}s"])
    rows.append(["pass_s", f"{end_to_end['pass_s']:.4f}", "s",
                 f"q1={q1:.4f} q3={q3:.4f} n={len(pass_walls)} passes"])
    rows.append(["verdict_s_gmean", f"{end_to_end['verdict_s_gmean']:.4f}", "s",
                 f"geometric mean over {len(job_medians)} job medians"])
    rows.append(["peak_rss_mb", f"{end_to_end['peak_rss_mb']:.1f}", "MB", "measuring process"])
    rows.append(["failed_frac", f"{failed / attempted:.4f}", "ratio",
                 f"{failed} failed of {attempted} attempted"])
    print_table(f"{header}: end to end", rows)

    if args.trace:
        trace = result["trace"]
        layer = trace["metrics"]
        rows = [["metric", "value", "unit"]]
        for name, spec in specs["per_layer"].items():
            rows.append([name, f"{layer[name]:.6g}", spec["unit"]])
        print_table(f"{header}: per layer (traced pass; trace.overhead_s="
                    f"{layer['trace.overhead_s']:.4f}s)", rows)
        rows = [["job", "wall_s", "unaccounted_s", "top-level spans (s)"]]
        for row in trace["jobs"]:
            # Top-level spans run one after another inside their job, so
            # they can never cover more than the job's wall time.
            if row["unaccounted_s"] < -1e-6:
                raise SystemExit(f"perfbench: spans of {row['job']} exceed its wall time")
            spans = " ".join(f"{name}={s:.4f}" for name, s in sorted(row["spans"].items()))
            rows.append([row["job"], f"{row['wall_s']:.4f}",
                         f"{row['unaccounted_s']:.4f}", spans])
        print_table(f"{header}: reconciliation (wall = spans + unaccounted)", rows)
        kind, values = "per_layer", layer
    else:
        kind, values = "end_to_end", end_to_end

    metrics = {}
    for name, spec in specs[kind].items():
        if values.get(name) is None:
            raise SystemExit(f"perfbench: metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
