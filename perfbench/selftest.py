"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a tpcost checkout. For every workload, an untraced and a
traced run must pass their output checks and emit exactly the metrics that
BENCHMARK.json names, each with its unit. Outside a checkout (only
BENCHMARK.json and perfbench/ present) the benchmark must fail without
printing a result. The file name keeps it out of pytest's default collection;
it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def _run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(workload, trace, ROOT)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if got.get(k, want[k]) != want[k]]}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{label}: non-numeric values {bad}")
            print(f"ok {label}: {len(got)} metrics")

    scratch_parent = ROOT / ".perfbench"
    scratch_parent.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch_parent))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("pretrain", 0, bare)
        if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
            problems.append("outside a checkout: expected a failure without "
                            f"a result, got exit {proc.returncode}")
        else:
            print(f"ok outside a checkout: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
