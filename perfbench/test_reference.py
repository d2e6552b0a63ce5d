"""Hand-worked values for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# README table: (di, dj, r, clamp, expected, branch, degenerate)
UPDATE_CASES = [
    (0.0, 0.0, 0.3, True, 0.3, ref.EQUAL, False),         # both deltas zero: keep r
    (1e-10, 5e-10, 0.4, True, 0.4, ref.EQUAL, False),     # both below the tolerance
    (0.05, 0.05, 0.7, True, 0.7, ref.EQUAL, False),       # equal deltas: keep r
    (0.3, 0.3 + 1e-10, 0.9, True, 0.9, ref.EQUAL, False),  # equal within the tolerance
    (0.1, 0.0, 0.5, True, 0.0, ref.ONE_ZERO, False),      # exactly one delta zero
    (0.0, 0.1, 0.5, True, 0.0, ref.ONE_ZERO, False),
    (1e-9, 0.1, 0.5, True, 0.0, ref.ONE_ZERO, False),     # |d| <= eps counts as zero
    (0.2, 0.1, 0.5, False, 4.0, ref.RATIO, False),        # x = 0.2 / 0.05 = 4 > 0: |x|
    (0.2, 0.1, 0.5, True, 1.0, ref.RATIO, False),         # ... clamped to 1
    (0.05, 0.1, 1.0, True, 0.5, ref.RATIO, False),        # x = 0.5
    (-0.2, 0.1, 0.5, True, 0.25, ref.RATIO, False),       # x = -4 < 0: 1 / |x|
    (-0.05, 0.1, 1.0, False, 2.0, ref.RATIO, False),      # x = -0.5: 1 / |x| = 2, unclamped
    (0.1, -0.2, 0.5, False, 1.0, ref.RATIO, False),       # x = -1
    (0.2, 0.1, 0.0, True, 0.0, ref.RATIO, True),          # r = 0 absorbs
]

# README library example
EXAMPLE = np.array([
    [1.0, 0.9, 0.1, 0.3, 0.2],
    [0.3, 1.0, 0.0, 0.2, 0.4],
    [0.4, 0.6, 1.0, 0.0, 0.1],
    [0.0, 0.5, 0.2, 1.0, 0.0],
    [0.7, 0.6, 0.2, 0.0, 1.0],
])
EXAMPLE_WEIGHTS = np.array([0.5, 0.38, 0.42, 0.34, 0.5])


@pytest.mark.parametrize("di, dj, r, clamp, expected, branch, degenerate", UPDATE_CASES)
def test_update_table(di, dj, r, clamp, expected, branch, degenerate):
    # cell (0, 1) of a two-subsystem system: affected 0, influencing 1
    out, codes, absorbed = ref.update_strengths([di, dj], [[1.0, r], [0.5, 1.0]], clamp=clamp)
    assert out[0, 1] == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert codes[0, 1] == branch
    assert bool(absorbed[0, 1]) == degenerate
    assert out[0, 0] == out[1, 1] == 1.0 and codes[0, 0] == ref.NONE


def test_update_matches_the_programs_scalar_rule():
    from crossimpact.model import Branch, ModelOptions, update_relationship

    rng = np.random.default_rng(7)
    n = 12
    for clamp in (True, False):
        for _ in range(20):
            deltas = rng.normal(0.0, 0.05, n)
            deltas[rng.random(n) < 0.2] = 0.0
            deltas[1] = deltas[2]
            prior = rng.uniform(0.0, 1.0, (n, n))
            prior[rng.random((n, n)) < 0.1] = 0.0
            out, codes, absorbed = ref.update_strengths(deltas, prior, clamp=clamp)
            opts = ModelOptions(clamp=clamp)
            for i in range(n):
                for j in range(n):
                    if i != j:
                        upd = update_relationship(deltas[i], deltas[j], prior[i, j], opts)
                        assert out[i, j] == upd.value
                        assert codes[i, j] == int(upd.branch)
                        assert absorbed[i, j] == upd.degenerate


def test_batched_simulation_equals_one_case_at_a_time():
    rng = np.random.default_rng(3)
    w0 = rng.uniform(0.2, 0.8, (4, 5))
    w1 = rng.uniform(0.2, 0.8, (4, 5))
    r1 = np.array([EXAMPLE] * 4)
    u = ref.min_norm_utility(r1, w1)
    policy = {2: rng.normal(0.0, 0.02, (4, 5))}
    batch = ref.simulate(w0, w1, r1, u, 6, policy)
    for c in range(4):
        single = ref.simulate(w0[c], w1[c], r1[c], u[c], 6, {2: policy[2][c]})
        for a, b in zip(batch, single):
            np.testing.assert_array_equal(a[c], b)


def test_aggregate_readme_example():
    np.testing.assert_allclose(ref.aggregate(EXAMPLE, np.full((5, 5), 0.2)), EXAMPLE_WEIGHTS, rtol=1e-12)


def test_aggregate_adds_emphasis_then_clips():
    emphasis = [0.6, 0.0, -0.5, 0.0, 0.01]
    u = np.full((5, 5), 0.2)
    np.testing.assert_allclose(ref.aggregate(EXAMPLE, u, emphasis, normalize=False),
                               [1.1, 0.38, -0.08, 0.34, 0.51], rtol=1e-12)
    np.testing.assert_allclose(ref.aggregate(EXAMPLE, u, emphasis), [1.0, 0.38, 0.0, 0.34, 0.51], rtol=1e-12)


def test_min_norm_closed_form():
    u = ref.min_norm_utility(EXAMPLE, EXAMPLE_WEIGHTS)
    # row 1: sum of squares 1 + 0.81 + 0.01 + 0.09 + 0.04 = 1.95
    np.testing.assert_allclose(u[0], EXAMPLE[0] * 0.5 / 1.95, rtol=1e-12)
    np.testing.assert_allclose((EXAMPLE * u).sum(axis=1), EXAMPLE_WEIGHTS, rtol=1e-12)
    for i in range(5):  # the least-norm solution of each row's single constraint
        least, *_ = np.linalg.lstsq(EXAMPLE[i][None, :], EXAMPLE_WEIGHTS[i : i + 1], rcond=None)
        np.testing.assert_allclose(u[i], least, rtol=1e-10, atol=1e-15)
    zero = ref.min_norm_utility(np.zeros((2, 2)), [0.0, 0.0])
    np.testing.assert_array_equal(zero, np.zeros((2, 2)))


def test_pca_ratios_and_first_component():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]])
    values, vectors = ref.pca(x)  # covariance diag(2/3, 1/6)
    np.testing.assert_allclose(values, [2.0 / 3.0, 1.0 / 6.0], rtol=1e-12)
    assert abs(vectors[0, 0]) == pytest.approx(1.0)


def test_influence_follows_the_varying_column():
    steps = np.array([np.eye(3)] * 4)
    steps[:, 0, 2] = steps[:, 1, 2] = [0.1, 0.5, 0.2, 0.9]  # only column 3 moves
    for design in ("column-sums", "flattened"):
        magnitudes, ratios, gap = ref.influence(steps, design)
        assert np.argmax(magnitudes) == 2 and magnitudes[2] == pytest.approx(1.0)
        assert ratios[0] == pytest.approx(1.0) and gap == pytest.approx(1.0)


def test_quality_and_trend():
    s = np.array([[0.9, 0.7], [0.8, 0.8], [1.0, 0.9]])
    ihdi = np.array([0.8, 0.8, 0.95])
    np.testing.assert_allclose(ref.quality(s, ihdi), [1.0, 1.0, 1.0], rtol=1e-12)
    assert ref.trend_fit([0, 1, 2], [0.9, 1.0, 1.1]) == (pytest.approx(0.1), "increasing", True)
    assert ref.trend_fit([0, 1, 2], [0.95, 0.95, 0.95]) == (pytest.approx(0.0), "stationary", True)
    assert ref.trend_fit([0, 1, 2], [0.95, 0.9, 0.85]) == (pytest.approx(-0.05), "decreasing", False)
    assert ref.trend_fit([0, 1, 2], [0.85, 0.85, 0.85])[2] is False  # under the 0.9 floor
