"""Self-test of the pipeline benchmark harness (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* a tiny-size run of every workload, untraced and traced, exits 0 and
  prints every metric named in ``BENCHMARK.json`` with its unit, with
  no failed job;
* the untraced measuring process never loads the tracing wrappers;
* a deliberately wrong expected verdict (``--flip-expect``) makes the
  command exit non-zero and report ``correct: false``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the command exits non-zero without printing a result;
* the committed expected counts agree with
  ``tests/objects/test_golden_sizes.py`` where the two overlap.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lin-serial", "explore-par2", "quotient-big", "bughunt-otf")


def run(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script)] + args, cwd=str(cwd),
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = ["--seed", "7", "--seconds", "0", "--size", "tiny"]
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out, err = run(["--workload", workload, "--trace", str(trace)] + tiny)
            check(code == 0, f"{workload} trace={trace} exits 0 ({err.strip()[-300:]})")
            result = last_json(out)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace} failed_frac == 0")
            check("failed_frac" in out, f"{workload} trace={trace} prints failed_frac")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} prints every {kind} metric with its unit")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="7")
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", "lin-serial",
         "--seed", "7", "--seconds", "0", "--size", "tiny"],
        cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=170)
    check(proc.returncode == 0 and not last_json(proc.stdout)["tracer_loaded"],
          "untraced run loads no wrapper")

    code, out, _err = run(["--workload", "lin-serial", "--trace", "0", "--flip-expect"] + tiny)
    check(code != 0 and not last_json(out)["correct"],
          "a wrong expected verdict exits non-zero with correct=false")

    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    code, out, _err = run(["--workload", "lin-serial", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    check(code != 0 and '"correct"' not in out,
          "without the program source the command fails and prints no result")

    golden_path = ROOT / "tests" / "objects" / "test_golden_sizes.py"
    spec_obj = importlib.util.spec_from_file_location("golden_sizes", golden_path)
    golden_mod = importlib.util.module_from_spec(spec_obj)
    sys.path.insert(0, str(ROOT / "src"))
    spec_obj.loader.exec_module(golden_mod)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    overlaps = 0
    for profile in expected["profiles"].values():
        for job_id, counts in profile["jobs"].items():
            kind, key, size = job_id.split(":")
            golden = golden_mod.GOLDEN.get(key)
            if golden is None or size != f"{golden[0]}x{golden[1]}/v2":
                continue
            quotient = counts.get("impl_quotient_states", counts.get("quotient_states"))
            if kind in ("lin", "lockfree", "otf-lin") and quotient:
                overlaps += 1
                check((counts["impl_states"], quotient) == tuple(golden[2:]),
                      f"{job_id} matches the golden sizes {golden[2:]}")
    check(overlaps > 0, f"{overlaps} expected counts overlap the golden sizes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
