"""Workload definitions and the seeded inputs of each case.

A workload is a set of cases ("regions").  For each case the benchmark
writes a strength matrix, an observed series with an IHDI column, a
utility matrix, a scenario and a trace, all drawn from the seed.  No
command reads another command's output, so a change to one command
cannot change another command's input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Workload:
    n: int              # subsystems
    cases: int
    series_rows: int
    horizon: int        # simulated steps, also the length of the rank input trace
    policy_steps: int   # steps, from 1, that carry a policy emphasis
    trace_format: str   # "table" or "structured"
    design: str         # rank observation design
    tune_tol: float


WORKLOADS = {
    # The paper's five subsystems with a policy sweep at every step: the
    # arrays are tiny, so per-call and per-step overheads dominate.
    "paper5": Workload(
        n=5, cases=60, series_rows=30, horizon=200, policy_steps=200,
        trace_format="table", design="flattened", tune_tol=1e-6,
    ),
    # n = 100: the per-cell update loop, the 100x100 eigensolve and the
    # JSON trace writer and reader dominate.
    "wide100": Workload(
        n=100, cases=2, series_rows=30, horizon=20, policy_steps=3,
        trace_format="structured", design="column-sums", tune_tol=1e-6,
    ),
    # n = 25 with long observed series and a tight tune tolerance: parsing
    # the series dominates calibrate, tune and qc; the update kernel and
    # JSON do little.
    "observed25": Workload(
        n=25, cases=20, series_rows=1000, horizon=10, policy_steps=2,
        trace_format="table", design="column-sums", tune_tol=1e-11,
    ),
}

SUFFIX = {"table": "csv", "structured": "json"}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def matrix_csv(entries) -> str:
    n = entries.shape[1]
    lines = [",".join(f"S{k + 1}" for k in range(n))]
    lines += [",".join(_fmt(v) for v in row) for row in entries]
    return "\n".join(lines) + "\n"


def series_csv(performance, ihdi) -> str:
    n = performance.shape[1]
    lines = ["t," + ",".join(f"S{k + 1}" for k in range(n)) + ",IHDI"]
    for t, (row, index) in enumerate(zip(performance, ihdi)):
        lines.append(",".join([str(t)] + [_fmt(v) for v in row] + [_fmt(index)]))
    return "\n".join(lines) + "\n"


def trace_text(w, r, counts, fmt) -> str:
    """A trace of steps t = 2 .. h + 1 in the program's table or
    structured format."""
    n = w.shape[1]
    if fmt == "table":
        header = ["t"] + [f"W{k + 1}" for k in range(n)]
        header += [f"R{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        lines = [",".join(header)]
        for k in range(len(w)):
            lines.append(",".join([str(k + 2)] + [_fmt(v) for v in w[k]] + [_fmt(v) for v in r[k].ravel()]))
        return "\n".join(lines) + "\n"
    steps = [
        {
            "t": k + 2,
            "w": w[k].tolist(),
            "r": r[k].tolist(),
            "branches": dict(zip(("one_zero", "equal", "ratio", "degenerate"), map(int, counts[k]))),
        }
        for k in range(len(w))
    ]
    return json.dumps({"kind": "trace", "size": n, "steps": steps}, indent=2) + "\n"


def _strengths(rng, n):
    """Off-diagonal strengths in (0.05, 0.95) with about 5 % exact zeros
    (absorbing cells), unit diagonal."""
    r = rng.uniform(0.05, 0.95, (n, n))
    r[rng.random((n, n)) < 0.05] = 0.0
    np.fill_diagonal(r, 1.0)
    return r


def _scenario(rng, wl):
    n = wl.n
    w0 = rng.uniform(0.2, 0.8, n)
    step = np.clip(rng.normal(0.0, 0.05, n), -0.15, 0.15)
    w1 = w0 + step
    w1[0] = w0[0]            # a zero delta: the one-zero branch fires
    w1[2] = w0[2] + step[1]  # equal deltas: the equal branch fires
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    policy = {
        str(s): (0.02 * np.sin(2.0 * np.pi * s / 25.0 + phase)).tolist()
        for s in range(1, wl.policy_steps + 1)
    }
    doc = {
        "w0": w0.tolist(),
        "w1": w1.tolist(),
        "r1": _strengths(rng, n).tolist(),
        "u": "calibrate",
        "policy": policy,
        "horizon": wl.horizon,
    }
    if n != 5:
        doc["subsystems"] = [f"region-subsystem-{k + 1}" for k in range(n)]
    return doc


def _series(rng, wl, utility):
    """Observed series: row 0 is the calibrate target and the earlier tune
    snapshot; row 1 is reachable from ``utility`` with strengths in
    [0.1, 0.9]; later rows are a random walk.  IHDI follows the mean
    performance over a drifting quality coefficient."""
    n, rows = wl.n, wl.series_rows
    s = np.empty((rows, n))
    s[0] = rng.uniform(0.1, 0.9, n)
    r_true = rng.uniform(0.1, 0.9, (n, n))
    np.fill_diagonal(r_true, 1.0)
    s[1] = (r_true * utility).sum(axis=1)
    for k in range(2, rows):
        s[k] = np.clip(s[k - 1] + rng.normal(0.0, 0.02, n), 0.02, 0.98)
    # the quality coefficient drifts by at most 0.06 over the window, whatever its length
    drift = rng.uniform(-2.0, 2.0) * 1e-3 * 30.0 / rows
    target_qc = rng.uniform(0.85, 1.05) + drift * np.arange(rows) + rng.normal(0.0, 0.005, rows)
    ihdi = np.clip(s.mean(axis=1) / target_qc, 0.01, 1.0)
    return s, ihdi


@dataclass(frozen=True)
class Case:
    name: str
    argv: dict            # command -> argument list for ``crossimpact.cli.main``
    outputs: dict         # command -> output path
    scenario: dict
    strengths: np.ndarray
    series: tuple         # (t, S, IHDI)
    utility: np.ndarray
    trace: np.ndarray     # the rank input's strength series, (h, n, n)


COMMANDS = ("calibrate", "tune", "simulate", "rank", "qc")


def generate(wl: Workload, seed: int, workdir: Path) -> list[Case]:
    """Write every case's inputs under ``workdir``; the same seed gives
    the same files."""
    n = wl.n
    drawn = []
    for c in range(wl.cases):
        rng = np.random.default_rng([seed, c, n])
        strengths = _strengths(rng, n)
        utility = rng.uniform(0.2, 1.0, (n, n)) / n
        performance, ihdi = _series(rng, wl, utility)
        drawn.append((strengths, utility, performance, ihdi, _scenario(rng, wl)))
    # The rank input of every case: the reference trajectory of its
    # scenario, computed for all cases at once.
    scenarios = [d[4] for d in drawn]
    w0, w1, r1 = (np.array([s[k] for s in scenarios]) for k in ("w0", "w1", "r1"))
    policy = {
        step: np.array([s["policy"][str(step)] for s in scenarios]) for step in range(1, wl.policy_steps + 1)
    }
    traces = ref.simulate(w0, w1, r1, ref.min_norm_utility(r1, w1), wl.horizon, policy)
    suffix = SUFFIX[wl.trace_format]
    cases = []
    for c, (strengths, utility, performance, ihdi, scenario) in enumerate(drawn):
        d = workdir / f"case{c:03d}"
        d.mkdir(parents=True, exist_ok=True)
        w, r, counts = (a[c] for a in traces)
        files = {
            "strengths": (d / "strengths.csv", matrix_csv(strengths)),
            "series": (d / "series.csv", series_csv(performance, ihdi)),
            "utility": (d / "utility.csv", matrix_csv(utility)),
            "scenario": (d / "scenario.json", json.dumps(scenario, indent=2) + "\n"),
            "trace": (d / f"trace.{suffix}", trace_text(w, r, counts, wl.trace_format)),
        }
        for path, text in files.values():
            path.write_text(text, encoding="utf-8")
        p = {k: str(v[0]) for k, v in files.items()}
        outputs = {
            "calibrate": str(d / "out-calibrate.csv"),
            "tune": str(d / "out-tune.json"),
            "simulate": str(d / f"out-simulate.{suffix}"),
            "rank": str(d / "out-rank.json"),
            "qc": str(d / "out-qc.csv"),
        }
        argv = {
            "calibrate": ["calibrate", "--r", p["strengths"], "--w", p["series"]],
            "tune": ["tune", "--series", p["series"], "--u", p["utility"], "--tol", repr(wl.tune_tol)],
            "simulate": ["simulate", "--scenario", p["scenario"], "--format", wl.trace_format],
            "rank": ["rank", "--trace", p["trace"], "--design", wl.design],
            "qc": ["qc", "--series", p["series"]],
        }
        argv = {cmd: args + ["--out", outputs[cmd]] for cmd, args in argv.items()}
        cases.append(
            Case(f"case{c:03d}", argv, outputs, scenario, strengths,
                 (np.arange(wl.series_rows), performance, ihdi), utility, r)
        )
    return cases
