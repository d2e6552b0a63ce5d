"""Command-line behaviour: exit codes, output contracts, determinism."""

import contextlib
import importlib.util
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact import (
    SeriesTable,
    SimulationTrace,
    parse_matrix,
    parse_qc_table,
    parse_ranking,
    parse_trace,
    parse_tune_result,
    write_matrix,
    write_scenario,
    write_series,
    write_trace,
)
from crossimpact import cli
from crossimpact.cli import main
from conftest import EXAMPLE_STRENGTHS, random_influence, random_trace, self_consistent_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def scenario_file(tmp_path, example_matrix, uniform_utility):
    path = tmp_path / "scenario.json"
    path.write_text(write_scenario(self_consistent_scenario(example_matrix, uniform_utility)))
    return str(path)


@pytest.fixture
def quality_series_file(tmp_path):
    table = SeriesTable(tuple(range(6)), np.full((6, 5), 0.72), np.full(6, 0.8))
    path = tmp_path / "series.csv"
    path.write_text(write_series(table))
    return str(path)


class TestSimulateCommand:
    def test_quiescent_ten_rows(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file, "--horizon", "10"]) == 0
        out = capsys.readouterr()
        assert len(out.out.strip().splitlines()) == 11  # header + 10 rows
        assert "final performance" in out.err

    def test_malformed_scenario_aggregates_errors(self, tmp_path, capsys):
        doc = {"w0": [2.0, 0.1, 0.1, 0.1, 0.1], "w1": [0.1] * 5, "r1": [[0.5] * 5] * 5}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") >= 2  # w0 range + broken diagonals

    def test_zero_horizon_rejected(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", scenario_file, "--horizon", "0"]) == 1
        assert "horizon must be >= 1" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["simulate", "--scenario", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize(
        "key, message",
        [("options", "options must be an object"), ("policy", "policy must be an object mapping step -> emphasis array")],
    )
    def test_a_non_object_section_exits_one(self, key, message, scenario_file, capsys):
        doc = json.loads(Path(scenario_file).read_text())
        doc[key] = []
        Path(scenario_file).write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", scenario_file]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--scenario"), ("rank", "--trace"), ("qc", "--series"), ("tune", "--series")],
    )
    def test_invalid_utf8_rejected(self, command, flag, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, flag, str(path)]) == 1
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_out_flag_writes_file(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert parse_trace(out_path.read_text()) is not None

    def test_byte_identical_runs(self, scenario_file, capsys):
        main(["simulate", "--scenario", scenario_file, "--format", "structured"])
        first = capsys.readouterr().out
        main(["simulate", "--scenario", scenario_file, "--format", "structured"])
        second = capsys.readouterr().out
        assert first == second and first


class TestCalibrateCommand:
    def test_example_matrix_target(self, tmp_path, capsys):
        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(np.array(EXAMPLE_STRENGTHS)))
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.38,0.42,0.34,0.5\n")
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path)]) == 0
        entries = parse_matrix(capsys.readouterr().out)
        assert entries[0] == pytest.approx(np.array([1.0, 0.9, 0.1, 0.3, 0.2]) * 0.5 / 1.95, abs=1e-12)

    def test_infeasible_row_exits_two(self, tmp_path, capsys):
        grid = np.eye(5)
        grid[3] = 0.0
        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(grid))
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.38,0.42,0.34,0.5\n")
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path)]) == 2
        assert "row 4" in capsys.readouterr().err

    def test_degenerate_row_noted(self, tmp_path, capsys):
        grid = np.eye(3)
        grid[1] = 0.0
        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(grid))
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2,S3\n0,0.5,0,0.25\n")
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path)]) == 0
        err = capsys.readouterr().err
        assert err.endswith("\nrow 2 degenerate: all-zero strengths with zero target\n")

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(np.eye(3)))
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.38,0.42,0.34,0.5\n")
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path)]) == 1

    def test_overflowing_weights_exit_one(self, tmp_path, capsys):
        # the sum of squares of row 2 is subnormal, so 0.4 over it overflows
        r_path = tmp_path / "r.csv"
        r_path.write_text("S1,S2\n1,0.5\n1e-160,1e-170\n")
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2\n0,0.5,0.4\n")
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: row 2: the min-norm utility weights overflow\n"


class TestTuneCommand:
    def _forward_series(self, tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        generator = random_influence(rng)
        utility = rng.uniform(0.0, 0.2, size=(5, 5))
        w_curr = np.einsum("ij,ij->i", generator.entries, utility)
        w_prev = rng.uniform(0.0, 1.0, 5)
        series = SeriesTable((0, 1), np.vstack([w_prev, w_curr]))
        series_path = tmp_path / "series.csv"
        series_path.write_text(write_series(series))
        u_path = tmp_path / "u.csv"
        u_path.write_text(write_matrix(utility))
        return str(series_path), str(u_path), utility, w_curr

    def test_forward_generated_series_converges(self, tmp_path, capsys):
        series_path, u_path, utility, w_curr = self._forward_series(tmp_path)
        assert main(["tune", "--series", series_path, "--u", u_path, "--tol", "1e-6"]) == 0
        r_prev, _, report = parse_tune_result(capsys.readouterr().out)
        assert report.all_converged
        assert max(report.residuals) <= 1e-6
        predicted = np.einsum("ij,ij->i", r_prev.entries, utility)
        assert np.max(np.abs(predicted - w_curr)) <= 1e-6

    def test_unreachable_target_exits_two(self, tmp_path, capsys):
        series = SeriesTable((0, 1), np.vstack([np.full(5, 0.4), np.full(5, 0.9)]))
        series_path = tmp_path / "series.csv"
        series_path.write_text(write_series(series))
        assert main(["tune", "--series", str(series_path), "--u", "auto"]) == 2
        out = capsys.readouterr()
        assert "unreachable" in out.err
        _, _, report = parse_tune_result(out.out)
        assert not report.all_converged

    def test_overflowing_residual_exits_one(self, tmp_path, capsys):
        # the strength-weighted sums overflow to inf; the report refuses an
        # infinite residual rather than writing a non-standard 'Infinity'
        (tmp_path / "series.csv").write_text("t,S1,S2,S3\n0,0.5,0.4,0.3\n1,0.6,0.3,0.2\n")
        (tmp_path / "u.csv").write_text(write_matrix(np.full((3, 3), 1.7e308)))
        argv = ["tune", "--series", str(tmp_path / "series.csv"), "--u", str(tmp_path / "u.csv")]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: row 1: the predicted performance overflows\n"

    def test_negative_tol_exits_one(self, quality_series_file, capsys):
        assert main(["tune", "--series", quality_series_file, "--tol", "-1"]) == 1
        assert "tol" in capsys.readouterr().err

    def test_single_row_series_exits_one(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.5,0.5,0.5,0.5\n")
        assert main(["tune", "--series", str(path)]) == 1


class TestQcCommand:
    def test_quality_table(self, quality_series_file, capsys):
        assert main(["qc", "--series", quality_series_file]) == 0
        out = capsys.readouterr()
        points = parse_qc_table(out.out)
        assert len(points) == 6
        assert all(p.qc == pytest.approx(0.9, rel=1e-12) for p in points)
        assert "trend=stationary" in out.err

    def test_missing_index_column(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.5,0.5,0.5,0.5\n1,0.5,0.5,0.5,0.5,0.5\n")
        assert main(["qc", "--series", str(path)]) == 1
        assert "IHDI" in capsys.readouterr().err

    def test_single_row_exits_one(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("t,S1,S2,S3,S4,S5,IHDI\n0,0.5,0.5,0.5,0.5,0.5,0.8\n")
        assert main(["qc", "--series", str(path)]) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_negative_slope_eps_exits_one(self, quality_series_file, capsys):
        assert main(["qc", "--series", quality_series_file, "--slope-eps", "-0.1"]) == 1

    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.1"])
    def test_slope_eps_must_be_finite_and_non_negative(self, eps, tmp_path, capsys):
        # a falling series: with a NaN dead band every slope read as stationary
        path = tmp_path / "falling.csv"
        path.write_text("t,S1,S2,IHDI\n0,0.9,0.9,0.9\n1,0.5,0.5,0.9\n2,0.1,0.1,0.9\n")
        assert main(["qc", "--series", str(path), "--slope-eps", eps]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: slope_eps must be a finite number >= 0, got {float(eps)}" in out.err

    def test_overflowing_coefficient_exits_two(self, tmp_path, capsys):
        path = tmp_path / "tiny-index.csv"
        path.write_text("t,S1,S2,IHDI\n0,0.5,0.4,5e-324\n1,0.5,0.4,0.8\n")
        assert main(["qc", "--series", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: quality coefficient overflows: mean performance 0.45 over index value 5e-324\n"

    @pytest.mark.parametrize(
        "rows",
        [
            # finite coefficients near 1e308 whose mean overflows: the slope is nan
            ["0,1,1,1e-308", "1,1,1,1e-308", "2,1,1,2e-308"],
            # a product of a 2**52 time offset and a 1e299 spread: the slope is -inf
            ["0,0.5,0.5,1e-300", "4503599627370495,0.4,0.4,1e-300"],
        ],
        ids=["nan", "-inf"],
    )
    def test_overflowing_trend_exits_two_without_warning(self, rows, tmp_path, capsys):
        path = tmp_path / "tiny-index.csv"
        path.write_text("\n".join(["t,S1,S2,IHDI", *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qc", "--series", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "Warning" not in out.err
        assert out.err == "error: the trend of the quality coefficients overflows: coefficients too large to fit a slope\n"


class TestRankCommand:
    def test_varying_subsystem_ranked_first(self, tmp_path, capsys):
        # only subsystem 3's column moves across the trace
        rng = np.random.default_rng(21)
        r = np.full((10, 5, 5), 0.5)
        for k in range(10):
            r[k, :, 2] = rng.uniform(0.1, 0.9)
        r[:, np.arange(5), np.arange(5)] = 1.0
        trace = SimulationTrace(np.full((10, 5), 0.5), r, [(0, 20, 0, 0)] * 10, 2)  # all 20 cells equal
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(write_trace(trace, "structured"))
        assert main(["rank", "--trace", str(trace_path)]) == 0
        ranking = parse_ranking(capsys.readouterr().out)
        assert ranking.order[0] == 2

    def test_constant_trace_exits_two(self, scenario_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["rank", "--trace", str(trace_path)]) == 2
        assert "tied" in capsys.readouterr().err

    def test_unknown_design_exits_one(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(write_trace(random_trace(np.random.default_rng(1)), "structured"))
        assert main(["rank", "--trace", str(trace_path), "--design", "rows"]) == 1

    def test_table_trace_accepted(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(write_trace(random_trace(np.random.default_rng(2)), "table"))
        assert main(["rank", "--trace", str(trace_path)]) == 0
        parse_ranking(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # strengths this large come from a run with clamp off
            (["1,0.5,1e200,1", "1,0.5,1e300,1", "1,0.5,1,1"], "the covariance of the observations overflows"),
            # a finite covariance of 1.62e308 that overflows when symmetrised
            (["1,0.5,0,1", "1,0.5,1.8e154,1"], "eigendecomposition overflows"),
            # three finite covariances of 7.9e307 whose eigenvalues overflow
            (["1,0,0,0,1,0,0,0,1", "1,1.26e154,0,0,1,1.26e154,1.26e154,0,1"], "the covariance's eigenvalues overflow"),
        ],
        ids=["covariance", "symmetrised", "eigenvalues"],
    )
    def test_overflowing_ranking_exits_two_without_warning(self, rows, message, tmp_path, capsys):
        n = 3 if len(rows[0].split(",")) == 9 else 2
        trace = SimulationTrace(
            np.full((len(rows), n), 0.5),
            np.array([[float(v) for v in row.split(",")] for row in rows]).reshape(-1, n, n),
            np.zeros((len(rows), 4), dtype=int),
            2,
        )
        path = tmp_path / "huge.csv"
        path.write_text(write_trace(trace, "table"))
        for design in ("column-sums", "flattened"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["rank", "--trace", str(path), "--design", design]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith(f"error: {message}")

    @given(
        cells=st.lists(
            st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1.2e154, 1.8e154, 1e200, 8.9e307, 1.7976931348623157e308])
            | st.floats(0.0, 1.7976931348623157e308),
            min_size=4 * 9,
            max_size=4 * 9,
        ),
        n=st.integers(2, 3),
        steps=st.integers(2, 4),
        design=st.sampled_from(["column-sums", "flattened"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_extreme_strengths_rank_or_exit_two(self, cells, n, steps, design, tmp_path_factory):
        r = np.array(cells[: steps * n * n]).reshape(steps, n, n)
        r[:, np.arange(n), np.arange(n)] = 1.0
        trace = SimulationTrace(np.full((steps, n), 0.5), r, np.zeros((steps, 4), dtype=int), 2)
        path = tmp_path_factory.mktemp("rank") / "trace.csv"
        path.write_text(write_trace(trace, "table"))
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["rank", "--trace", str(path), "--design", design])
        assert code in (0, 2), err.getvalue()


class TestMachineOutputSelfCompatibility:
    def test_all_outputs_reparse(self, tmp_path, scenario_file, quality_series_file, capsys):
        trace_path = tmp_path / "trace.txt"
        assert main(
            ["simulate", "--scenario", scenario_file, "--format", "structured", "--out", str(trace_path)]
        ) == 0
        parse_trace(trace_path.read_text())

        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(np.array(EXAMPLE_STRENGTHS)))
        w_path = tmp_path / "w.csv"
        w_path.write_text("t,S1,S2,S3,S4,S5\n0,0.5,0.38,0.42,0.34,0.5\n")
        u_path = tmp_path / "u.csv"
        assert main(["calibrate", "--r", str(r_path), "--w", str(w_path), "--out", str(u_path)]) == 0
        parse_matrix(u_path.read_text())

        qc_path = tmp_path / "qc.csv"
        assert main(["qc", "--series", quality_series_file, "--out", str(qc_path)]) == 0
        parse_qc_table(qc_path.read_text())

        capsys.readouterr()


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it must be
    invisible: every call behaves as it would on a freshly built parser."""

    @pytest.fixture
    def calls(self, tmp_path, scenario_file):
        # a quality coefficient rising by 0.01 a step: stationary within a
        # dead band of 0.5, increasing within the default 1e-3
        values = np.repeat(0.72 + 0.008 * np.arange(6.0)[:, None], 5, axis=1)
        series = SeriesTable(tuple(range(6)), values, np.full(6, 0.8))
        series_path = tmp_path / "series.csv"
        series_path.write_text(write_series(series))
        r_path = tmp_path / "r.csv"
        r_path.write_text(write_matrix(np.array(EXAMPLE_STRENGTHS)))
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(write_trace(random_trace(np.random.default_rng(0))))
        return [
            ["simulate", "--scenario", scenario_file, "--horizon", "3"],
            ["simulate", "--scenario", scenario_file],
            ["qc", "--series", str(series_path), "--no-such-flag"],
            ["qc", "--series", str(series_path), "--slope-eps", "0.5"],
            ["qc", "--series", str(series_path)],
            ["calibrate", "--r", str(r_path), "--w", str(series_path)],
            ["tune", "--series", str(series_path), "--u", "auto"],
            ["rank", "--trace", str(trace_path)],
        ]

    @staticmethod
    def _run(argv, capsys):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_reused_parser_behaves_like_a_fresh_one(self, calls, capsys):
        cli.build_parser.cache_clear()
        reused = [self._run(argv, capsys) for argv in calls]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 0]
        assert reused[2][2].startswith("error: unrecognized arguments: --no-such-flag")
        assert "simulated 3 steps" in reused[0][2] and "simulated 10 steps" in reused[1][2]
        assert "trend=stationary" in reused[3][2] and "trend=increasing" in reused[4][2]

    def test_tracer_records_one_parser_span_per_call(self, calls):
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [main(argv) for argv in calls[3:6]]
        finally:
            tracer.uninstall()
        assert codes == [0, 0, 0]
        assert [span[3] for span in tracer.spans].count("cli.build_parser") == 3
