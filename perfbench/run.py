"""Benchmark of the five crossimpact CLI commands.

    python3 perfbench/run.py --workload paper5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload wide100 --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload observed25 --seed 1 --digest

Run from the root of a source checkout; the program is imported from
``src/``.  The load is a closed loop: one caller in one process, no
threads, one command at a time, each called in-process through
``crossimpact.cli.main``.  BLAS runs with one thread.

A run generates the workload's inputs from the seed, makes a warm-up round
whose outputs are checked against the benchmark's own reference
computations, then repeats whole rounds (every command on every case)
until ``--seconds`` have passed, checking that each output is byte-identical
to the warm-up round's.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A traced run spends half its time untraced and half
traced, and writes its spans under ``perfbench/results/``.  ``--digest``
prints a SHA-256 of every output document of the warm-up round instead.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

END_TO_END = ("setup_s", "simulate_s", "rank_s", "tune_s", "calibrate_s", "qc_s", "peak_rss_mb")


def time_setup() -> float:
    """Wall time of a fresh interpreter importing ``crossimpact.cli``,
    which every CLI invocation pays before any work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import crossimpact.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"importing crossimpact.cli failed:\n{proc.stderr}")
    return elapsed


class Bench:
    """Calls the commands of every case and keeps the tallies."""

    def __init__(self, cli, workload, cases):
        self.cli = cli
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[str, str], str] = {}

    def call(self, case, cmd, tracer=None):
        """One command call; returns (seconds, stderr text, exit code)."""
        buf = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stderr(buf):
            span = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    code = self.cli.main(case.argv[cmd])
            except Exception as e:  # a traceback breaks the exit-code contract; count it
                code = f"uncaught {type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"{case.name} {cmd}: exit {code}: {buf.getvalue().strip()[-300:]}")
        return elapsed, buf.getvalue(), code

    def output(self, case, cmd) -> str:
        return Path(case.outputs[cmd]).read_text(encoding="utf-8")

    def warm_up(self):
        """First round: check every output against the reference and keep
        its digest."""
        for case in self.cases:
            for cmd in workloads.COMMANDS:
                _, stderr, code = self.call(case, cmd)
                if code != 0:
                    continue
                problems = checks.check_output(self.workload, case, cmd, self.output(case, cmd), stderr)
                self.problems += [f"{case.name} {p}" for p in problems]
                self.digests[case.name, cmd] = hashlib.sha256(
                    Path(case.outputs[cmd]).read_bytes()
                ).hexdigest()

    def timed_rounds(self, seconds, tracer=None, on_calibrate=None):
        """Whole rounds until ``seconds`` have passed; returns the call
        times per command and the number of rounds."""
        times = defaultdict(list)
        rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            for case in self.cases:
                for cmd in workloads.COMMANDS:
                    elapsed, _, code = self.call(case, cmd, tracer)
                    times[cmd].append(elapsed)
                    if code != 0:
                        continue
                    digest = hashlib.sha256(Path(case.outputs[cmd]).read_bytes()).hexdigest()
                    if digest != self.digests.get((case.name, cmd)):
                        self.problems.append(f"{case.name} {cmd}: output differs from the warm-up round")
                    if on_calibrate is not None and cmd == "calibrate":
                        on_calibrate(case)
            rounds += 1
        return times, rounds


def verify_min_norm_hook(bench, tracer):
    """Time the library's ``verify_min_norm`` on each ``calibrate`` output;
    it must certify the output as minimal."""
    from crossimpact.calibration import verify_min_norm
    from crossimpact.model import PerformanceVector

    def hook(case):
        utility = checks.read_matrix(bench.output(case, "calibrate"))
        target = PerformanceVector(case.series[1][0])
        with tracer.span("calibration.verify_min_norm"):
            ok = verify_min_norm(utility, case.strengths, target)
        if not ok:
            bench.problems.append(f"{case.name}: verify_min_norm rejects the calibrate output")

    return hook


def median_times(times):
    return {f"{cmd}_s": statistics.median(v) for cmd, v in times.items()}


def run(args) -> int:
    if not (SRC / "crossimpact" / "cli.py").is_file():
        print(f"error: {SRC / 'crossimpact'} not found; run from a crossimpact source checkout",
              file=sys.stderr)
        return 1
    setup_s = time_setup()
    sys.path.insert(0, str(SRC))
    import crossimpact
    import crossimpact.cli as cli

    if Path(crossimpact.__file__).resolve().parent != SRC / "crossimpact":
        print(f"error: imported crossimpact from {crossimpact.__file__}, not {SRC}", file=sys.stderr)
        return 1

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    try:
        wl = workloads.WORKLOADS[args.workload]
        bench = Bench(cli, wl, workloads.generate(wl, args.seed, workdir))
        bench.warm_up()
        if args.digest:
            lines = [f"{d}  {case}/{cmd}" for (case, cmd), d in sorted(bench.digests.items())]
            total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            lines.append(f"{total}  {args.workload} seed {args.seed} (all documents)")
            (RESULTS / f"digest-{stem}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print("\n".join(lines))
            report_problems(bench)
            return 0 if not bench.problems else 1

        info = {"samples": {}}
        if args.trace:
            plain, _ = bench.timed_rounds(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, rounds = bench.timed_rounds(
                    args.seconds / 2, tracer, verify_min_norm_hook(bench, tracer)
                )
            finally:
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, rounds)
            base, with_spans = median_times(plain), median_times(traced)
            for key in base:
                metrics[f"trace.overhead.{key}"] = (with_spans[key] - base[key], "s")
            tracer.write(RESULTS / f"spans-{stem}.json")
            info["absent"] = tracer.missing
            for name in tracer.missing:
                print(f"note: {name} no longer exists; its metrics are absent", file=sys.stderr)
            info["samples"] = {cmd: len(v) for cmd, v in traced.items()}
        else:
            times, _ = bench.timed_rounds(args.seconds)
            metrics = {k: (v, "s") for k, v in median_times(times).items()}
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics = {k: metrics[k] for k in END_TO_END}
            info["samples"] = {cmd: len(v) for cmd, v in times.items()}
            # the highest percentile with at least ten samples beyond it
            info["p90_s"] = {cmd: statistics.quantiles(v, n=10)[-1] for cmd, v in times.items() if len(v) >= 100}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads=int(BLAS_THREADS), python=platform.python_version(),
                  numpy=np.__version__, problems=bench.problems[:50], **info)
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                            encoding="utf-8")
    for k, (v, u) in metrics.items():
        print(f"{k:45s} {v:.6g} {u}", file=sys.stderr)
    report_problems(bench)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report_problems(bench):
    for p in bench.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print a SHA-256 of every output document of one round and exit")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
