"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Every tolerance is pinned here; expected values come from independent
oracles (hand sums, closed forms, analytic eigenpairs), never from the
code paths under test.
"""

import math
from contextlib import contextmanager

import numpy as np

from crossimpact import (
    Branch,
    ModelOptions,
    PerformanceVector,
    SeriesTable,
    compute_weights,
    jacobi_eigendecomposition,
    parse_trace,
    parse_tune_result,
    quality_coefficient,
    simulate,
    solve_utility_min_norm,
    update_relationship,
    verify_min_norm,
    write_matrix,
    write_scenario,
    write_series,
    write_trace,
)
from crossimpact.analysis import influence_ranking
from crossimpact.cli import main
from conftest import (
    EXAMPLE_STRENGTHS,
    random_influence,
    random_trace,
    self_consistent_scenario,
)
from test_analysis import varying_column_trace
from test_calibration import closed_form_rows


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] {name}: FAIL")
        raise
    print(f"[acceptance {number}] {name}: PASS")


CLAMPED = ModelOptions()
UNCLAMPED = ModelOptions(clamp=False)

# (dw_i, dw_j, r_prev, opts, expected, branch, exact)
BRANCH_TABLE = [
    (0.1, 0.0, 0.5, CLAMPED, 0.0, Branch.ONE_ZERO, True),        # worked example
    (0.05, 0.05, 0.7, CLAMPED, 0.7, Branch.EQUAL, True),         # worked example
    (0.2, 0.1, 0.5, UNCLAMPED, 4.0, Branch.RATIO, False),        # worked example
    (0.2, 0.1, 0.5, CLAMPED, 1.0, Branch.RATIO, True),           # worked example, clamped
    (-0.2, 0.1, 0.5, CLAMPED, 0.25, Branch.RATIO, False),        # worked example
    (0.0, 0.1, 0.5, CLAMPED, 0.0, Branch.ONE_ZERO, True),
    (0.0, 0.0, 0.3, CLAMPED, 0.3, Branch.EQUAL, True),
    (1e-10, 5e-10, 0.4, CLAMPED, 0.4, Branch.EQUAL, True),       # both below tolerance
    (0.3, 0.3 + 1e-10, 0.9, CLAMPED, 0.9, Branch.EQUAL, True),   # equal within tolerance
    (0.1, -0.2, 0.5, UNCLAMPED, 1.0, Branch.RATIO, False),       # ratio exactly -1
    (0.2, 0.1, 0.0, CLAMPED, 0.0, Branch.RATIO, True),           # vanished denominator
    (-0.05, 0.1, 1.0, UNCLAMPED, 2.0, Branch.RATIO, False),
    (0.05, 0.1, 1.0, CLAMPED, 0.5, Branch.RATIO, False),
    (1e-9, 0.1, 0.5, CLAMPED, 0.0, Branch.ONE_ZERO, True),       # boundary delta
]


def test_criterion_1_branch_table():
    with criterion(1, "strength-update branch table"):
        assert len(BRANCH_TABLE) >= 12
        for dw_i, dw_j, r_prev, opts, expected, branch, exact in BRANCH_TABLE:
            upd = update_relationship(dw_i, dw_j, r_prev, opts)
            assert upd.branch is branch, (dw_i, dw_j, r_prev)
            if exact:
                assert upd.value == expected, (dw_i, dw_j, r_prev)
            else:
                assert math.isclose(upd.value, expected, rel_tol=1e-12), (dw_i, dw_j, r_prev)


def test_criterion_2_min_norm_oracle():
    with criterion(2, "minimum-norm solver vs closed form"):
        rng = np.random.default_rng(20240)
        for trial in range(100):
            influence = random_influence(rng)
            target = PerformanceVector(rng.uniform(0.0, 1.0, 5), 1)
            utility, _ = solve_utility_min_norm(influence, target)
            oracle = closed_form_rows(influence.entries, target.values)
            assert np.max(np.abs(utility.entries - oracle)) <= 1e-10
            reproduced = np.einsum("ij,ij->i", influence.entries, utility.entries)
            assert np.max(np.abs(reproduced - target.values)) <= 1e-9
            assert verify_min_norm(utility, influence, target)


def test_criterion_3_example_grid_aggregation(example_matrix, uniform_utility):
    with criterion(3, "example grid aggregation oracle"):
        # independent oracle: plain-Python row sums scaled by the uniform weight
        oracle = [0.2 * sum(row) for row in EXAMPLE_STRENGTHS]
        computed = compute_weights(example_matrix, uniform_utility).values
        assert np.max(np.abs(computed - np.array(oracle))) <= 1e-12
        expected = (0.5, 0.38, 0.42, 0.34, 0.5)
        assert np.max(np.abs(computed - np.array(expected))) <= 1e-12


def test_criterion_4_tune_round_trip(tmp_path, capsys):
    with criterion(4, "tune command round-trip on forward-generated series"):
        rng = np.random.default_rng(777)
        series_path = tmp_path / "series.csv"
        u_path = tmp_path / "u.csv"
        out_path = tmp_path / "tuned.json"
        for _ in range(50):
            generator = random_influence(rng)
            utility = rng.uniform(0.0, 0.2, size=(5, 5))
            w_curr = np.einsum("ij,ij->i", generator.entries, utility)
            w_prev = rng.uniform(0.0, 1.0, 5)
            series_path.write_text(write_series(SeriesTable((0, 1), np.vstack([w_prev, w_curr]))))
            u_path.write_text(write_matrix(utility))
            code = main(
                [
                    "tune",
                    "--series", str(series_path),
                    "--u", str(u_path),
                    "--tol", "1e-6",
                    "--out", str(out_path),
                ]
            )
            assert code == 0
            capsys.readouterr()  # drain the command's own diagnostics
            r_prev, _, report = parse_tune_result(out_path.read_text())
            assert report.all_converged
            assert max(report.residuals) <= 1e-6
            # re-simulate: the tuned strengths reproduce the later snapshot
            predicted = np.einsum("ij,ij->i", r_prev.entries, utility)
            assert np.max(np.abs(predicted - w_curr)) <= 1e-6


def test_criterion_5_quality_identity():
    with criterion(5, "quality-coefficient identity"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            [point] = quality_coefficient(
                SeriesTable([0], [rng.uniform(0.0, 1.0, 5)], [float(rng.uniform(0.05, 1.0))])
            )
            scale = max(abs(point.mean_w), 1e-300)
            assert abs(point.qc * point.ihdi - point.mean_w) <= 1e-12 * scale
        [exact_case] = quality_coefficient(SeriesTable([0], [np.full(5, 0.72)], [0.8]))
        assert abs(exact_case.qc - 0.9) <= 1e-12


def test_criterion_6_pca_oracle():
    with criterion(6, "principal-component oracle"):
        values, vectors = jacobi_eigendecomposition(np.diag([2.0, 1.0]))
        assert abs(values[0] - 2.0) <= 1e-10 and abs(values[1] - 1.0) <= 1e-10
        ratios = values / values.sum()
        assert abs(ratios[0] - 2.0 / 3.0) <= 1e-10 and abs(ratios[1] - 1.0 / 3.0) <= 1e-10
        assert np.allclose(vectors, np.eye(2), atol=1e-10)

        rng = np.random.default_rng(666)
        data = rng.standard_normal((40, 5))
        cov = np.cov(data, rowvar=False)
        values, vectors = jacobi_eigendecomposition(cov)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(5))) <= 1e-9
        assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - cov) <= 1e-9

        hits = 0
        for trial in range(100):
            trial_rng = np.random.default_rng(1000 + trial)
            column = int(trial_rng.integers(0, 5))
            ranking = influence_ranking(varying_column_trace(trial_rng, column))
            hits += ranking.order[0] == column
        assert hits == 100


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys, example_matrix, uniform_utility):
    with criterion(7, "determinism and trace round-trip"):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(
            write_scenario(self_consistent_scenario(example_matrix, uniform_utility))
        )
        argv = ["simulate", "--scenario", str(scenario_path), "--format", "structured"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second and first

        rng = np.random.default_rng(888)
        for _ in range(100):
            trace = random_trace(rng, steps=int(rng.integers(1, 10)))
            assert parse_trace(write_trace(trace, "structured")) == trace


def test_criterion_8_quiescent_fixed_point(example_matrix, uniform_utility):
    with criterion(8, "quiescent fixed point over 1000 steps"):
        scenario = self_consistent_scenario(example_matrix, uniform_utility)
        trace = simulate(scenario, 1000)
        for w, r, branches in zip(trace.w, trace.r, trace.branches):
            assert np.array_equal(w, trace.w[0])
            assert np.array_equal(r, example_matrix.entries)
            assert np.array_equal(branches, trace.branches[0])
