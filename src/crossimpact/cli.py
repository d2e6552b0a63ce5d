"""Command-line surface: simulate, calibrate, tune, qc, rank.

Machine output (tables or JSON documents, all re-parseable by this
package) goes to standard output or ``--out``; human diagnostics go to
standard error.  Exit codes: 0 on success, 1 for input or validation
problems, 2 for numerical failures such as non-convergence, infeasible
rows, a degenerate ranking, or a ranking or quality trend that overflows.
Identical invocations on identical inputs produce identical machine output.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import OBSERVATION_DESIGNS, SLOPE_EPS, influence_ranking, quality_coefficient, trend
from .calibration import TuneOptions, _seed_guess, solve_utility_min_norm, tune_initial_r
from .errors import (
    CrossImpactError,
    DomainError,
    InputError,
    ParseError,
    SequencingError,
    ShapeError,
    ValidationError,
)
from .model import BRANCH_FIELDS, UtilityMatrix, simulate
from .scenario_io import (
    parse_matrix,
    parse_scenario,
    parse_series,
    parse_trace,
    write_matrix,
    write_qc_table,
    write_ranking,
    write_trace,
    write_tune_result,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports flag problems through the exit-code contract
    instead of terminating the process with its own status."""

    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e


def cmd_simulate(args) -> int:
    scenario = parse_scenario(_read(args.scenario))
    if args.horizon is not None:
        scenario = replace(scenario, horizon=args.horizon)
    trace = simulate(scenario)
    _emit(write_trace(trace, args.format), args.out)
    totals = trace.branches.sum(axis=0).tolist()
    _note(f"simulated {len(trace)} steps (t = {trace.start}..{trace.start + len(trace) - 1})")
    _note("final performance: " + ", ".join(f"{v:.6g}" for v in trace.w[-1].tolist()))
    _note("update branches: " + " ".join(f"{name}={count}" for name, count in zip(BRANCH_FIELDS, totals)))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    influence = parse_matrix(_read(args.r))
    series = parse_series(_read(args.w))
    performance = series.performance_at(0)
    if len(series) > 1:
        _note(f"using series row t={series.timestamps[0]} as the calibration target")
    utility, report = solve_utility_min_norm(influence, performance)
    _emit(write_matrix(utility.entries), args.out)
    for i, residual in enumerate(report.residuals):
        _note(f"row {i + 1}: residual={residual:.3g} converged={report.converged[i]}")
    for note in report.notes:
        _note(note)
    return EXIT_OK


def cmd_tune(args) -> int:
    opts = TuneOptions(tol=args.tol, max_sweeps=args.max_sweeps)
    series = parse_series(_read(args.series))
    if len(series) < 2:
        raise InputError("tuning needs a series with at least two rows (consecutive snapshots)")
    w_prev = series.performance_at(0)
    w_curr = series.performance_at(1)
    if args.u == "auto":
        utility, _ = solve_utility_min_norm(_seed_guess(series.size), w_prev)
        _note("utility weights approximated from the earlier snapshot (min-norm)")
    else:
        utility = UtilityMatrix(parse_matrix(_read(args.u)))
    r_prev, r_curr, report = tune_initial_r(w_prev, w_curr, utility, opts=opts)
    _emit(write_tune_result(r_prev, r_curr, report), args.out)
    for i, residual in enumerate(report.residuals):
        _note(
            f"row {i + 1}: residual={residual:.3g} sweeps={report.sweeps[i]} "
            f"converged={report.converged[i]}"
        )
    for note in report.notes:
        _note(note)
    if not report.all_converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_qc(args) -> int:
    points = quality_coefficient(parse_series(_read(args.series)))
    report = trend(points, args.slope_eps)
    _emit(write_qc_table(points), args.out)
    _note(
        f"trend={report.classification} slope={report.slope:.6g} "
        f"satisfiable={'true' if report.satisfiable else 'false'}"
    )
    return EXIT_OK


def cmd_rank(args) -> int:
    trace = parse_trace(_read(args.trace))
    ranking = influence_ranking(trace, args.design)
    _emit(write_ranking(ranking), args.out)
    for place, (idx, loading) in enumerate(zip(ranking.order, ranking.loadings), start=1):
        _note(f"rank {place}: S{idx + 1} (loading {loading:.6g})")
    _note(
        "explained variance: "
        + ", ".join(f"{r:.6g}" for r in ranking.explained_variance)
    )
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process.  It holds no per-call state: ``parse_args`` puts
    each call's values into a fresh namespace."""
    parser = _Parser(prog="crossimpact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and emit the trace")
    p.add_argument("--scenario", required=True, help="scenario JSON document")
    p.add_argument("--horizon", type=int, default=None, help="steps to run (default: scenario value)")
    p.add_argument("--out", default=None, help="write machine output here instead of stdout")
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="solve min-norm utility weights from strengths and targets")
    p.add_argument("--r", required=True, help="strength matrix CSV (header S1,...,Sn)")
    p.add_argument("--w", required=True, help="series CSV; its first row is the target")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("tune", help="search seed strengths matching the first two series rows")
    p.add_argument("--series", required=True, help="series CSV with at least two rows")
    p.add_argument("--u", default="auto", help="utility matrix CSV, or 'auto' to approximate")
    p.add_argument("--tol", type=float, default=TuneOptions.tol)
    p.add_argument("--max-sweeps", type=int, default=TuneOptions.max_sweeps)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("qc", help="quality-coefficient table and trend over a series")
    p.add_argument("--series", required=True, help="series CSV with the IHDI column")
    p.add_argument("--slope-eps", type=float, default=SLOPE_EPS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("rank", help="rank subsystems by influence over a trace")
    p.add_argument("--trace", required=True, help="trace file (table or structured)")
    p.add_argument("--design", choices=OBSERVATION_DESIGNS, default="column-sums")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        _note(f"error: {e}")
        return EXIT_INPUT
    try:
        return args.func(args)
    except ValidationError as e:
        for violation in e.violations:
            _note(f"error: {violation}")
        return EXIT_INPUT
    except (ParseError, InputError, ShapeError, DomainError, SequencingError) as e:
        _note(f"error: {e}")
        return EXIT_INPUT
    except CrossImpactError as e:
        _note(f"error: {e}")
        return EXIT_NUMERICAL
    except OSError as e:
        _note(f"error: {e}")
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
