"""Smoke test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 perfbench/smoke.py

It checks that every workload in BENCHMARK.json runs with and without
tracing, that every output check passes, that every metric BENCHMARK.json
names is emitted with its unit, and that in a directory holding only
BENCHMARK.json and perfbench/ the benchmark exits non-zero without a result.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.1"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _check_result(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} --trace {trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed: {failures}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}, "
                        f"wrong units {sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{label}: end-to-end metric {name} = {value!r} is not positive")
    if not problems:
        print(f"ok {label}: {result['attempted']} operations, {len(got)} metrics")
    return problems


def _check_refuses_without_sources(spec: dict) -> list[str]:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    print(f"ok without sources: exit {proc.returncode}, no result printed")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += _check_result(spec, workload["name"], trace)
    problems += _check_refuses_without_sources(spec)
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
