"""Calibration: min-norm utility solving, minimality probing, tuning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact import (
    DomainError,
    InfeasibleRowError,
    PerformanceVector,
    PolicyFunction,
    SequencingError,
    TuneOptions,
    UtilityMatrix,
    solve_utility_min_norm,
    tune_initial_r,
    update_relationship,
    verify_min_norm,
)
from conftest import random_influence


def closed_form_rows(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference solution computed with plain Python loops: each row is
    the strength row scaled by its Lagrange multiplier."""
    n = len(w)
    u = [[0.0] * n for _ in range(n)]
    for i in range(n):
        ss = sum(float(r[i][k]) ** 2 for k in range(n))
        lam = float(w[i]) / ss
        for j in range(n):
            u[i][j] = lam * float(r[i][j])
    return np.array(u)


def lstsq_min_norm_rows(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Independent route: SVD-based least-squares (minimum-norm) per row."""
    n = len(w)
    u = np.zeros((n, n))
    for i in range(n):
        sol, *_ = np.linalg.lstsq(r[i].reshape(1, n), np.array([w[i]]), rcond=None)
        u[i] = sol
    return u


class TestSolveUtility:
    def test_example_row_lagrange_values(self, example_matrix):
        # row 1 of the example grid: sum of squares 1.95, multiplier 0.5/1.95
        w = PerformanceVector([0.5, 0.38, 0.42, 0.34, 0.5], 1)
        utility, report = solve_utility_min_norm(example_matrix, w)
        expected_row = np.array([1.0, 0.9, 0.1, 0.3, 0.2]) * (0.5 / 1.95)
        assert np.allclose(utility.entries[0], expected_row, atol=1e-15)
        assert utility.entries[0] == pytest.approx(
            [0.256410, 0.230769, 0.025641, 0.076923, 0.051282], abs=1e-6
        )
        assert float(np.dot(example_matrix.entries[0], utility.entries[0])) == pytest.approx(
            0.5, abs=1e-9
        )
        assert report.all_converged

    def test_zero_target(self, example_matrix):
        utility, _ = solve_utility_min_norm(example_matrix, PerformanceVector(np.zeros(5), 1))
        assert np.array_equal(utility.entries, np.zeros((5, 5)))

    def test_identity_decouples(self):
        w = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        utility, _ = solve_utility_min_norm(np.eye(5), PerformanceVector(w, 1))
        assert np.array_equal(np.diagonal(utility.entries), w)
        assert np.count_nonzero(utility.entries - np.diag(w)) == 0

    def test_infeasible_row_named(self):
        grid = np.eye(5)
        grid[2] = 0.0  # all-zero row
        with pytest.raises(InfeasibleRowError) as err:
            solve_utility_min_norm(grid, PerformanceVector([0.1, 0.1, 0.3, 0.1, 0.1], 1))
        assert err.value.row == 2
        assert "row 3" in str(err.value)

    def test_overflowing_row_named(self):
        grid = np.eye(3)
        grid[1, 2] = 1e200  # the row's sum of squares exceeds the binary64 range
        with pytest.raises(DomainError, match="row 2"):
            solve_utility_min_norm(grid, PerformanceVector([0.1, 0.1, 0.3], 1))

    def test_subnormal_row_rejected_without_warning(self):
        # the sum of squares of 1e-160 is subnormal, so the weight overflows
        with pytest.raises(DomainError, match="^row 1: the min-norm utility weights overflow$"):
            solve_utility_min_norm([[1e-160, 0.0], [0.0, 1.0]], PerformanceVector([0.5, 0.5], 1))

    def test_degenerate_row_with_zero_target(self):
        grid = np.eye(5)
        grid[2] = 0.0
        utility, report = solve_utility_min_norm(grid, PerformanceVector([0.1, 0.1, 0.0, 0.1, 0.1], 1))
        assert np.array_equal(utility.entries[2], np.zeros(5))
        assert any("row 3" in note and "degenerate" in note for note in report.notes)

    def test_matches_both_oracles_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = random_influence(rng)
            w = PerformanceVector(rng.uniform(0.0, 1.0, 5), 1)
            utility, report = solve_utility_min_norm(r, w)
            assert np.allclose(utility.entries, closed_form_rows(r.entries, w.values), atol=1e-10)
            assert np.allclose(utility.entries, lstsq_min_norm_rows(r.entries, w.values), atol=1e-10)
            reproduced = np.einsum("ij,ij->i", r.entries, utility.entries)
            assert np.max(np.abs(reproduced - w.values)) <= 1e-9
            assert report.all_converged


class TestVerifyMinNorm:
    def test_solver_output_passes(self, example_matrix):
        w = PerformanceVector([0.5, 0.38, 0.42, 0.34, 0.5], 1)
        utility, _ = solve_utility_min_norm(example_matrix, w)
        assert verify_min_norm(utility, example_matrix, w)

    def test_null_space_perturbation_detected(self, example_matrix):
        w = PerformanceVector([0.5, 0.38, 0.42, 0.34, 0.5], 1)
        utility, _ = solve_utility_min_norm(example_matrix, w)
        # shift row 0 by a constraint-preserving direction: same reproduced
        # performance, strictly longer than the minimum-norm row
        rng = np.random.default_rng(3)
        r_row = example_matrix.entries[0]
        v = rng.standard_normal(5)
        d = v - r_row * (np.dot(v, r_row) / np.dot(r_row, r_row))
        d *= 0.5 / np.linalg.norm(d)
        perturbed = np.array(utility.entries)
        perturbed[0] += d
        assert np.dot(r_row, perturbed[0]) == pytest.approx(0.5, abs=1e-9)
        assert not verify_min_norm(UtilityMatrix(perturbed), example_matrix, w)

    def test_one_subsystem_grid_vacuous(self):
        # a single-subsystem grid has a trivial null space; nothing to probe
        assert verify_min_norm([[0.5]], [[2.0]], PerformanceVector([1.0], 0))

    def test_zero_strength_row_needs_zero_utility(self):
        grid = [[1.0, 0.5], [0.0, 0.0]]
        w = PerformanceVector([0.5, 0.0], 0)
        assert not verify_min_norm([[0.4, 0.2], [0.3, 0.0]], grid, w)

    def test_degenerate_zero_row_of_solver_passes(self):
        grid = [[1.0, 0.5, 0.2], [0.0, 0.0, 0.0], [0.3, 1.0, 0.4]]
        w = PerformanceVector([0.5, 0.0, 0.4], 0)
        utility, report = solve_utility_min_norm(grid, w)
        assert report.notes  # row 2 is the degenerate zero row
        assert verify_min_norm(utility, grid, w)

    @pytest.mark.parametrize("valid", [True, False])
    def test_seed_has_no_effect(self, example_matrix, valid):
        w = PerformanceVector([0.5, 0.38, 0.42, 0.34, 0.5], 1)
        utility, _ = solve_utility_min_norm(example_matrix, w)
        entries = np.array(utility.entries)
        if not valid:  # add a constraint-preserving direction to row 2
            r_row = example_matrix.entries[2]
            entries[2] += 0.3 * (np.eye(5)[0] - r_row * r_row[0] / np.dot(r_row, r_row))
        assert verify_min_norm(entries, example_matrix, w) == valid


class TestTuneInitialR:
    def test_already_converged_guess_untouched(self, uniform_utility):
        # the seed guess (0.5 off the diagonal, 1 on it) predicts
        # 0.2 * (1 + 4 * 0.5) = 0.6 in every row
        guess = np.full((5, 5), 0.5) + 0.5 * np.eye(5)
        w_prev = PerformanceVector(np.full(5, 0.6), 0)
        w_curr = PerformanceVector(w_prev.values, 1)
        tuned, advanced, report = tune_initial_r(w_prev, w_curr, uniform_utility)
        assert report.sweeps == (0, 0, 0, 0, 0)
        assert np.array_equal(tuned.entries, guess)
        assert np.array_equal(advanced.entries, guess)  # zero deltas keep it
        assert report.all_converged

    def test_uniform_utility_target(self, uniform_utility):
        # each row must reach 0.2 * (1 + off-diagonal sum) = 0.5
        w_prev = PerformanceVector(np.full(5, 0.4), 0)
        w_curr = PerformanceVector(np.full(5, 0.5), 1)
        tuned, _, report = tune_initial_r(w_prev, w_curr, uniform_utility)
        assert report.all_converged
        predictions = np.einsum("ij,ij->i", tuned.entries, uniform_utility.entries)
        assert np.max(np.abs(predictions - 0.5)) <= 1e-6
        assert np.all(np.diagonal(tuned.entries) == 1.0)
        assert np.all(tuned.entries >= 0.0) and np.all(tuned.entries <= 1.0)

    def test_unreachable_target_flagged(self, uniform_utility):
        w_prev = PerformanceVector(np.full(5, 0.4), 0)
        w_curr = PerformanceVector(np.full(5, 2.0), 1)  # max reachable is 1.0
        tuned, _, report = tune_initial_r(w_prev, w_curr, uniform_utility)
        assert not any(report.converged)
        assert all("unreachable" in note for note in report.notes)
        assert len(report.notes) == 5
        # best-found values are still returned and valid
        assert np.all(tuned.entries <= 1.0)

    def test_advanced_matrix_follows_update_rule(self, uniform_utility):
        w_prev = PerformanceVector([0.40, 0.45, 0.41, 0.38, 0.42], 0)
        w_curr = PerformanceVector([0.50, 0.45, 0.43, 0.39, 0.41], 1)
        tuned, advanced, _ = tune_initial_r(w_prev, w_curr, uniform_utility)
        assert tuned.timestamp == 0 and advanced.timestamp == 1
        deltas = w_curr.values - w_prev.values
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert advanced.entries[i, j] == 1.0
                else:
                    expected = update_relationship(deltas[i], deltas[j], tuned.entries[i, j])
                    assert advanced.entries[i, j] == expected.value

    def test_nonconsecutive_snapshots_rejected(self, uniform_utility):
        with pytest.raises(SequencingError):
            tune_initial_r(
                PerformanceVector(np.full(5, 0.4), 0),
                PerformanceVector(np.full(5, 0.5), 2),
                uniform_utility,
            )

    def test_bad_tune_options(self):
        with pytest.raises(DomainError):
            TuneOptions(tol=-1.0)
        with pytest.raises(DomainError):
            TuneOptions(max_sweeps=0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_forward_generated_targets_converge(self, seed):
        # synthetic instances from the forward model are always reachable:
        # the generating strengths lie inside the bracket
        rng = np.random.default_rng(seed)
        generator = random_influence(rng)
        utility = UtilityMatrix(rng.uniform(0.0, 0.2, size=(5, 5)))
        w_curr = np.einsum("ij,ij->i", generator.entries, utility.entries)
        w_prev = PerformanceVector(rng.uniform(0.0, 1.0, 5), 0)
        tuned, _, report = tune_initial_r(w_prev, PerformanceVector(w_curr, 1), utility)
        assert report.all_converged
        predictions = np.einsum("ij,ij->i", tuned.entries, utility.entries)
        assert np.max(np.abs(predictions - w_curr)) <= 1e-6

    def test_report_honesty(self, uniform_utility):
        # mixed outcome: rows 1..4 reachable, row 5 unreachable
        w_prev = PerformanceVector(np.full(5, 0.4), 0)
        w_curr = PerformanceVector([0.5, 0.5, 0.5, 0.5, 2.0], 1)
        _, _, report = tune_initial_r(w_prev, w_curr, uniform_utility)
        for residual, flag in zip(report.residuals, report.converged):
            assert flag == (residual <= report.tol)
        assert report.converged == (True, True, True, True, False)

    def test_bisection_runs_past_sixty_halvings(self):
        # the root 1e-30 lies about 100 halvings below 0.5, so a bisection
        # capped near 60 steps stops short of it and never converges
        w_prev = PerformanceVector([0.5, 0.5], 0)
        w_curr = PerformanceVector([1e-30, 0.25], 1)
        utility = UtilityMatrix([[0.0, 1.0], [1.0, 0.0]])
        tuned, _, report = tune_initial_r(w_prev, w_curr, utility, opts=TuneOptions(tol=1e-300))
        assert report.all_converged and report.sweeps == (1, 1)
        assert tuned.entries[0, 1] == 1e-30

    def test_non_monotone_policy_rejected(self):
        with pytest.raises(DomainError, match="policy function 'wavy' must be monotone"):
            PolicyFunction("wavy", lambda r_row, u_row: float(np.sin(np.dot(r_row, u_row))), monotone=False)

    def test_custom_policy_function(self):
        # a non-default evaluator that is monotone in each coordinate
        def sqrt_forward(r_row, u_row):
            return float(np.sqrt(max(np.dot(r_row, u_row), 0.0)))

        policy = PolicyFunction("sqrt-forward", sqrt_forward)
        utility = UtilityMatrix(np.full((5, 5), 0.2))
        w_prev = PerformanceVector(np.full(5, 0.4), 0)
        w_curr = PerformanceVector(np.full(5, 0.7), 1)  # needs dot product 0.49
        tuned, _, report = tune_initial_r(w_prev, w_curr, utility, policy=policy)
        assert report.all_converged
        for i in range(5):
            assert sqrt_forward(tuned.entries[i], utility.entries[i]) == pytest.approx(
                0.7, abs=1e-6
            )
