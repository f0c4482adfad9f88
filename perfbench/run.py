"""plkit benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload drive_survey --seed 1 --seconds 56 --trace 0

Set-up generates the workload's inputs from the seed in a fresh child
process that also times ``import plkit``; later set-up rounds repeat it,
spread over the timed span, and must produce the same files. The benchmark
runs the workload's ``plkit`` command chain in this process through
``plkit.cli.main``, pass after pass with no threads, while the next pass
would still end within ``--seconds``. A warm-up pass comes first and is not
timed. Every pass is checked: each command must exit 0, the workload's
output checks must hold and the artifacts must be byte-identical to the
warm-up pass's.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics with the tracing
overhead, runs one pass in a fresh process to compare with the in-process
passes, and writes the spans to ``.perfbench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without plkit's sources under
``src/`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_ROUNDS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the input sizes (the smoke test runs at tiny sizes)")
    # internal: the child processes of set-up and of the fresh-process pass
    p.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--single-pass", dest="single_pass", nargs=2, type=Path,
                   metavar=("INPUTS", "OUT"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_plkit() -> float:
    """Import plkit from this checkout's sources; returns the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import plkit

    elapsed = time.perf_counter() - start
    if Path(plkit.__file__).resolve().parent != (SRC / "plkit").resolve():
        raise ImportError(f"plkit was imported from {plkit.__file__}, not from {SRC}")
    return elapsed


def _child(args: list[str]) -> dict:
    """Run this script in a fresh process and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _hashes(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _environment() -> dict:
    import numpy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        rev = proc.stdout.strip() or rev
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "plkit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
        "src_sha256": src_hash.hexdigest()[:16],
    }


class Runner:
    """Runs passes of one workload's chain and counts operations and failures."""

    def __init__(self, workload, inputs: Path, out: Path, expected: dict, tracer):
        self.workload = workload
        self.inputs = inputs
        self.out = out
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def run_pass(self, traced: bool = False) -> tuple[float, int, list[float]]:
        """One pass of the chain; returns its wall seconds, the number of
        elevation-clamp warnings it raised and each command's wall seconds."""
        from plkit import cli

        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        chain = self.workload.chain(self.inputs, self.out)
        results, command_walls = [], []
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                for argv in chain:
                    command_start = time.perf_counter()
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        if traced:
                            rc = self.tracer.call(f"cli.{argv[0]}", _invoke, cli, argv)
                        else:
                            rc = _invoke(cli, argv)
                    results.append((argv[0], rc, stdout.getvalue(), stderr.getvalue()))
                    command_walls.append(time.perf_counter() - command_start)
                wall = time.perf_counter() - start
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.pass_index += 1
        self.check(results)
        clamped = sum(1 for w in caught if "clamping" in str(w.message))
        return wall, clamped, command_walls

    def check(self, results) -> None:
        for command, rc, _, stderr in results:
            self.record(f"plkit {command} exits 0", rc == 0, f"exit {rc}: {stderr.strip()[-500:]}")
        if all(rc == 0 for _, rc, _, _ in results):
            try:
                checks = self.workload.check(self.out, self.expected, [r[2] for r in results])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                checks = [("outputs are readable", False, repr(exc))]
            for name, ok, detail in checks:
                self.record(name, ok, detail)
        self.compare_artifacts(_hashes(self.out), "artifacts byte-identical to the first pass")

    def compare_artifacts(self, hashes: dict[str, str], name: str) -> None:
        if self.reference is None:
            self.reference = hashes
        else:
            differ = sorted(k for k in set(hashes) | set(self.reference)
                            if hashes.get(k) != self.reference.get(k))
            self.record(name, not differ, f"differing: {differ[:5]}")


def _invoke(cli, argv) -> int:
    """plkit's entry point as a user calls it: any exit or crash is an exit code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, reported with its traceback
        traceback.print_exc()
        return 1


def _generate(args) -> int:
    """Child process of set-up: time the import and the input generation."""
    import_s = _import_plkit()
    import workloads

    start = time.perf_counter()
    expected = workloads.WORKLOADS[args.workload].generate(args.seed, args.scale, args.generate)
    generate_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "generate_s": generate_s, "expected": expected}))
    return 0


def _single_pass(args) -> int:
    """Child process of the traced run: one pass in a fresh process, with
    no warm-up, to compare with the passes made in a long-lived one."""
    _import_plkit()
    import workloads

    inputs, out = args.single_pass
    expected = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
    runner = Runner(workloads.WORKLOADS[args.workload], inputs, out, expected, None)
    wall = runner.run_pass()[0]
    print(json.dumps({"wall_s": wall, "failures": runner.failures,
                      "attempted": runner.attempted, "hashes": runner.reference}))
    return 0


def _setup_round(args, target: Path) -> tuple[float, dict[str, str], dict]:
    """Generate the inputs into ``target`` in a fresh process; returns the
    round's set-up time (import + generation), the files' hashes and the
    generator's expectations."""
    report = _child(["--workload", args.workload, "--seed", str(args.seed),
                     "--scale", str(args.scale), "--generate", str(target)])
    return report["import_s"] + report["generate_s"], _hashes(target), report["expected"]


def _run(args) -> int:
    _import_plkit()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs"
        setup_s, setup_hashes, expected = _setup_round(args, inputs)
        setup_times = [setup_s]
        (inputs / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
        tracer = Tracer() if args.trace else None
        runner = Runner(workloads.WORKLOADS[args.workload], inputs, work / "out", expected, tracer)

        def later_setup_round() -> None:
            target = work / f"inputs{len(setup_times)}"
            seconds, hashes, generated = _setup_round(args, target)
            shutil.rmtree(target)
            setup_times.append(seconds)
            runner.record(f"set-up round {len(setup_times)} generates the same inputs",
                          hashes == setup_hashes and generated == expected)

        runner.run_pass()  # warm-up: not timed, its artifacts are the reference
        walls, command_walls, traced_walls, layers, rounds = [], [], [], [], []
        start = time.perf_counter()
        # Stop when the next round would end after --seconds. The later
        # set-up rounds are spread over the same span as the passes, so
        # that setup_s and wall_s see the machine in the same states.
        while (len(walls) < MIN_PASSES
               or time.perf_counter() - start + statistics.median(rounds) <= args.seconds):
            if time.perf_counter() - start >= len(setup_times) * args.seconds / SETUP_ROUNDS:
                later_setup_round()
            round_start = time.perf_counter()
            wall, _, commands = runner.run_pass()
            walls.append(wall)
            command_walls.append(commands)
            if args.trace:
                wall, clamped, _ = runner.run_pass(traced=True)
                traced_walls.append(wall)
                layers.append(tracer.pass_metrics(clamped))
            rounds.append(time.perf_counter() - round_start)
        while len(setup_times) < SETUP_ROUNDS:
            later_setup_round()

        fresh_wall = None
        if args.trace:
            fresh = _child(["--workload", args.workload, "--seed", str(args.seed),
                            "--single-pass", str(inputs), str(work / "fresh_out")])
            fresh_wall = fresh["wall_s"]
            runner.attempted += fresh["attempted"]
            runner.failures += fresh["failures"]
            runner.compare_artifacts(fresh["hashes"],
                                     "fresh-process artifacts byte-identical to the first pass")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only if no other run is using it

    failed = len(runner.failures)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    median = statistics.median(walls)
    mean = statistics.fmean(walls)
    half = len(walls) // 2
    drift = statistics.median(walls[-half:]) / statistics.median(walls[:half])
    env = _environment()
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale:g}: "
          f"{json.dumps(expected)[:300]}")
    print(f"setup_s: {SETUP_ROUNDS} rounds (import + generate) spread over the run, "
          f"median {statistics.median(setup_times):.4f} s, all {[round(t, 4) for t in setup_times]}")
    print(f"wall_s: mean of {len(walls)} timed passes after 1 warm-up {mean:.4f} s; "
          f"median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    print(f"pass walls (s): {json.dumps([round(w, 4) for w in walls])}")
    print("command walls, median (s): " + ", ".join(
        f"{argv[0]} {statistics.median(c):.4f}"
        for argv, c in zip(runner.workload.chain(inputs, work), zip(*command_walls))))
    print(f"drift: median of the last {half} passes / first {half} = {drift:.4f}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB; operations {runner.attempted}, failed {failed}, "
          f"failed_ratio {failed / runner.attempted:.4g}")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}")

    if args.trace:
        per_layer = _traced_report(args, env, tracer, layers, walls, traced_walls, fresh_wall)
        per_layer["bench.drift_ratio"] = drift
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": mean, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "passed_ratio": {"value": 1.0 - failed / runner.attempted, "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _traced_report(args, env, tracer, layers, walls, traced_walls, fresh_wall) -> dict:
    """Median per-layer metrics over the traced passes, plus the tracing
    overhead; writes the spans to TRACE_DIR."""
    per_layer = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    untraced = statistics.fmean(walls)
    traced = statistics.fmean(traced_walls)
    per_layer.update({
        "bench.untraced_wall_s": untraced,
        "bench.traced_wall_s": traced,
        "bench.trace_overhead_s": traced - untraced,
        "bench.fresh_process_wall_s": fresh_wall,
    })
    print(f"tracing overhead: traced {traced:.4f} s - untraced {untraced:.4f} s = "
          f"{traced - untraced:+.4f} s over {len(traced_walls)} traced passes; "
          f"a fresh process's first pass took {fresh_wall:.4f} s")
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "environment": env, "workload": args.workload, "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "pass"],
        "spans": tracer.spans, "per_pass": layers,
    }) + "\n", encoding="utf-8")
    print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")
    return per_layer


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "plkit" / "__init__.py").is_file():
        print(f"error: no plkit sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.generate:
        return _generate(args)
    if args.single_pass:
        return _single_pass(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
