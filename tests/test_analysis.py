"""Quality coefficient, trend classification, eigendecomposition and ranking."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossimpact import (
    BranchCounts,
    CrossImpactError,
    DegenerateRankingError,
    DomainError,
    InfluenceMatrix,
    InputError,
    PerformanceVector,
    QualityPoint,
    SeriesTable,
    ShapeError,
    SimulationTrace,
    TraceStep,
    influence_centrality,
    influence_ranking,
    jacobi_eigendecomposition,
    quality_coefficient,
    trend,
)
from crossimpact.analysis import ranking_from_observations
from conftest import random_trace


class TestQualityCoefficient:
    def test_example_ratio(self):
        point = quality_coefficient(PerformanceVector(np.full(5, 0.72), 3), 0.8)
        assert point.qc == pytest.approx(0.9, abs=1e-12)
        assert point.timestamp == 3

    def test_ideal_unity(self):
        point = quality_coefficient(PerformanceVector(np.full(5, 0.5), 0), 0.5)
        assert point.qc == 1.0

    def test_zero_performance(self):
        assert quality_coefficient(PerformanceVector(np.zeros(5), 0), 0.5).qc == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, float("nan")])
    def test_nonpositive_index_rejected(self, bad):
        with pytest.raises(DomainError):
            quality_coefficient(PerformanceVector(np.full(5, 0.5), 0), bad)

    def test_index_above_one_warns_but_computes(self):
        with pytest.warns(UserWarning):
            point = quality_coefficient(PerformanceVector(np.full(5, 0.6), 0), 1.2)
        assert point.qc == pytest.approx(0.5, rel=1e-12)

    def test_inconsistent_point_rejected(self):
        with pytest.raises(DomainError):
            QualityPoint(0, ihdi=0.8, mean_w=0.72, qc=0.5)

    @given(
        seed=st.integers(0, 10**6),
        ihdi=st.floats(1e-6, 1.0, allow_nan=False),
    )
    def test_identity_holds_for_every_point(self, seed, ihdi):
        rng = np.random.default_rng(seed)
        point = quality_coefficient(PerformanceVector(rng.uniform(0, 1, 5), 0), ihdi)
        scale = max(abs(point.mean_w), 1e-300)
        assert abs(point.qc * point.ihdi - point.mean_w) <= 1e-12 * scale


def _oracle(series: SeriesTable) -> list[QualityPoint]:
    """The per-row rule the series form replaces: one ``np.mean`` per row."""
    points = []
    for k, t in enumerate(series.timestamps):
        mean_w = float(np.mean(series.values[k]))
        points.append(QualityPoint(t, float(series.ihdi[k]), mean_w, mean_w / float(series.ihdi[k])))
    return points


ROW_WIDTHS = [1, 2, 3, 5, 7, 8, 9, 16, 25, 33, 100, 257]


@st.composite
def audited_series(draw) -> SeriesTable:
    rows, n = draw(st.integers(1, 12)), draw(st.sampled_from(ROW_WIDTHS))
    t0 = draw(st.integers(-(10**6), 10**6))
    values = draw(arrays(float, (rows, n), elements=st.floats(0.0, 1.0)))
    ihdi = draw(st.lists(st.floats(1e-300, 1.0), min_size=rows, max_size=rows))
    return SeriesTable(range(t0, t0 + rows), values, ihdi)


class TestSeriesQualityCoefficient:
    """The series form computes every row's mean in one ``mean(axis=1)``
    pass; the per-row ``np.mean`` rule is its oracle."""

    @pytest.mark.parametrize("n", ROW_WIDTHS)
    def test_row_means_equal_per_row_means_bit_for_bit(self, n):
        # numpy sums each row pairwise in blocks of 8; a reduction that
        # summed in another order would round differently from n = 8 up
        values = np.random.default_rng(n).uniform(0.0, 1.0, size=(500, n))
        oracle = np.array([float(np.mean(row)) for row in values])
        assert values.mean(axis=1).tobytes() == oracle.tobytes()

    @given(series=audited_series())
    @settings(max_examples=150, deadline=None)
    def test_both_forms_match_the_per_row_oracle(self, series):
        points = quality_coefficient(series, series.ihdi)
        assert points == _oracle(series)
        assert [quality_coefficient(series.performance_at(k), ihdi) for k, ihdi in enumerate(series.ihdi)] == points

    def test_vector_form_gives_one_point_and_series_form_a_list(self):
        series = SeriesTable([4, 7], [[0.5, 0.7], [0.25, 0.75]], [0.8, 0.5])
        assert quality_coefficient(series.performance_at(1), 0.5) == QualityPoint(7, 0.5, 0.5, 1.0)
        points = quality_coefficient(series, series.ihdi)
        assert isinstance(points, list) and points == _oracle(series)

    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.2, float("nan"), float("inf"), float("-inf")])
    def test_bad_index_names_the_first_bad_value(self, bad):
        series = SeriesTable([0, 1, 2, 3], np.full((4, 3), 0.5))
        message = f"index value must be positive and finite, got {bad}"
        with pytest.raises(DomainError, match=re.escape(message)):
            quality_coefficient(series, [0.5, bad, 0.7, -1.0])
        with pytest.raises(DomainError, match=re.escape(message)):
            quality_coefficient(series.performance_at(1), bad)

    def test_index_above_one_gives_one_warning(self):
        series = SeriesTable([0, 1, 2], np.full((3, 2), 0.6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            points = quality_coefficient(series, [1.2, 0.5, 1.5])
        assert [str(w.message) for w in caught] == [
            "index value 1.2 exceeds 1; composite indices are defined on [0, 1]"
        ]
        assert [p.qc for p in points] == [0.6 / 1.2, 0.6 / 0.5, 0.6 / 1.5]
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("ihdi", [[0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]]])
    def test_one_index_value_per_row(self, ihdi):
        series = SeriesTable([0, 1, 2], np.full((3, 2), 0.6))
        with pytest.raises(ShapeError, match="one index value per row"):
            quality_coefficient(series, ihdi)
        with pytest.raises(ShapeError, match="one index value per row"):
            quality_coefficient(series.performance_at(0), ihdi[:2])

    def test_overflowing_coefficient_rejected(self):
        # 0.5 / 5e-324 is not a binary64; an infinite coefficient would
        # reach the quality table, which cannot read it back
        with pytest.raises(DomainError, match="quality coefficient overflows"):
            quality_coefficient(PerformanceVector(np.full(3, 0.5), 0), 5e-324)
        series = SeriesTable([0, 1], np.full((2, 2), 0.5))
        with pytest.raises(DomainError, match="quality coefficient overflows"):
            quality_coefficient(series, [0.5, 1e-310])


def _points(qc_values, t0: int = 0) -> list[QualityPoint]:
    # unit index makes the qc * ihdi == mean_w identity exact by construction
    return [QualityPoint(t0 + k, 1.0, float(v), float(v)) for k, v in enumerate(qc_values)]


class TestTrend:
    def test_constant_series_stationary_satisfiable(self):
        report = trend(_points([0.95] * 10))
        assert report.slope == 0.0
        assert report.classification == "stationary"
        assert report.satisfiable

    def test_linear_decline(self):
        report = trend(_points([0.95 - 0.01 * t for t in range(10)]))
        assert report.slope == pytest.approx(-0.01, rel=1e-12)
        assert report.classification == "decreasing"
        assert not report.satisfiable

    def test_constant_below_floor(self):
        report = trend(_points([0.85] * 10))
        assert report.classification == "stationary"
        assert not report.satisfiable

    def test_increasing(self):
        report = trend(_points([0.91 + 0.005 * t for t in range(10)]))
        assert report.classification == "increasing"
        assert report.satisfiable

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            trend(_points([0.95]))

    def test_unordered_timestamps_rejected(self):
        pts = _points([0.95, 0.95])
        with pytest.raises(InputError):
            trend([pts[1], pts[0]])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf"), -0.1])
    def test_slope_eps_must_be_finite_and_non_negative(self, eps):
        with pytest.raises(DomainError, match=re.escape(f"slope_eps must be a finite number >= 0, got {eps}")):
            trend(_points([0.95, 0.9, 0.8]), slope_eps=eps)

    @pytest.mark.parametrize("eps", [0.0, -0.0])
    def test_zero_dead_band(self, eps):
        assert trend(_points([0.95, 0.95]), slope_eps=eps).classification == "stationary"
        assert trend(_points([0.95, 0.96]), slope_eps=eps).classification == "increasing"

    @given(slope=st.floats(-1.0, 1.0, allow_nan=False))
    def test_classification_total(self, slope):
        report = trend(_points([0.5 + slope * t for t in range(5)]), slope_eps=1e-3)
        assert report.classification in ("increasing", "stationary", "decreasing")
        # dead band boundaries: strictly-greater comparisons on both sides
        if abs(report.slope) <= 1e-3:
            assert report.classification == "stationary"


class TestJacobi:
    def test_analytic_diagonal_case(self):
        values, vectors = jacobi_eigendecomposition(np.diag([2.0, 1.0]))
        assert np.array_equal(values, [2.0, 1.0])
        assert np.array_equal(vectors, np.eye(2))

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        c=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_matches_analytic_2x2(self, a, b, c):
        values, vectors = jacobi_eigendecomposition(np.array([[a, b], [b, c]]))
        mid = 0.5 * (a + c)
        radius = np.hypot(0.5 * (a - c), b)
        assert values[0] == pytest.approx(mid + radius, abs=1e-10)
        assert values[1] == pytest.approx(mid - radius, abs=1e-10)
        assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 10, 25])
    def test_random_symmetric_decomposition(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n))
        sym = 0.5 * (m + m.T)
        values, vectors = jacobi_eigendecomposition(sym)
        assert np.all(np.diff(values) <= 0)  # descending
        assert np.allclose(vectors.T @ vectors, np.eye(n), atol=1e-9)
        assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - sym) <= 1e-9

    def test_covariance_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 5))
        cov = np.cov(x, rowvar=False)
        values, _ = jacobi_eigendecomposition(cov)
        assert np.all(values >= -1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            jacobi_eigendecomposition(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            jacobi_eigendecomposition(np.ones((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            jacobi_eigendecomposition(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_largest_component_of_each_vector_positive(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((12, 12))
        _, vectors = jacobi_eigendecomposition(m + m.T)
        pivots = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[pivots, np.arange(12)] > 0.0)

    def test_lapack_failure_is_engine_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(CrossImpactError):
            jacobi_eigendecomposition(np.eye(3))


def varying_column_trace(rng: np.random.Generator, column: int, steps: int = 12) -> SimulationTrace:
    """Only ``column``'s strengths move over time; everything else is flat."""
    base = np.full((5, 5), 0.5)
    np.fill_diagonal(base, 1.0)
    out = []
    for k in range(steps):
        entries = np.array(base)
        level = rng.uniform(0.1, 0.9)
        for i in range(5):
            if i != column:
                entries[i, column] = level
        out.append(
            TraceStep(
                2 + k,
                PerformanceVector(np.full(5, 0.5), 2 + k),
                InfluenceMatrix(entries, 2 + k),
                BranchCounts(equal=20),
            )
        )
    return SimulationTrace(tuple(out))


class TestInfluenceRanking:
    @pytest.mark.parametrize("column", [0, 1, 2, 3, 4])
    def test_single_varying_column_ranks_first(self, column):
        rng = np.random.default_rng(column + 1)
        ranking = influence_ranking(varying_column_trace(rng, column))
        assert ranking.order[0] == column
        assert ranking.loadings[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_flattened_design_agrees(self, column):
        rng = np.random.default_rng(column + 10)
        ranking = influence_ranking(varying_column_trace(rng, column), design="flattened")
        assert ranking.design == "flattened"
        assert ranking.order[0] == column

    def test_integer_exact_covariance_case(self):
        # two features with sample covariance exactly [[2, 0], [0, 1]]
        observations = np.array([[0, 3], [2, 1], [2, 2], [2, 1], [4, 3]], dtype=float)
        centered = observations - observations.mean(axis=0)
        assert np.array_equal(centered.T @ centered / 4.0, np.diag([2.0, 1.0]))
        ranking = ranking_from_observations(observations, 2, "column-sums")
        assert ranking.order == (0, 1)
        assert ranking.explained_variance[0] == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert ranking.explained_variance[1] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_constant_trace_degenerate(self):
        rng = np.random.default_rng(5)
        base = varying_column_trace(rng, 0, steps=4)
        first = base.steps[0].influence.entries
        frozen = SimulationTrace(
            tuple(
                TraceStep(s.timestamp, s.performance, InfluenceMatrix(first, s.timestamp), s.branches)
                for s in base.steps
            )
        )
        with pytest.raises(DegenerateRankingError):
            influence_ranking(frozen)

    def test_short_trace_rejected(self):
        rng = np.random.default_rng(6)
        single = SimulationTrace(varying_column_trace(rng, 0, steps=1).steps[:1])
        with pytest.raises(InputError):
            influence_ranking(single)

    def test_unknown_design_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InputError):
            influence_ranking(varying_column_trace(rng, 0), design="row-sums")

    @given(seed=st.integers(0, 10**6), scale=st.floats(1e-3, 1e3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_scaling_observations_keeps_order(self, seed, scale):
        rng = np.random.default_rng(seed)
        observations = rng.uniform(0.0, 1.0, size=(8, 5))
        base = ranking_from_observations(observations, 5, "column-sums")
        scaled = ranking_from_observations(scale * observations, 5, "column-sums")
        assert base.order == scaled.order

    def test_flattened_design_at_n25(self):
        # a 625x625 covariance: the ratios are the normalised squared
        # singular values of the centred observations
        observations = np.random.default_rng(25).uniform(0.0, 1.0, size=(50, 625))
        ranking = ranking_from_observations(observations, 25, "flattened")
        singular = np.linalg.svd(observations - observations.mean(axis=0), compute_uv=False)
        expected = np.zeros(625)
        expected[: singular.size] = singular**2 / np.sum(singular**2)
        assert sorted(ranking.order) == list(range(25))
        assert np.max(np.abs(np.array(ranking.explained_variance) - expected)) <= 1e-12

    def test_explained_variance_sums_to_one(self):
        trace = random_trace(np.random.default_rng(8), steps=10)
        ranking = influence_ranking(trace)
        assert sum(ranking.explained_variance) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= r <= 1.0 + 1e-12 for r in ranking.explained_variance)


class TestCentrality:
    def test_example_totals(self, example_matrix):
        centrality = influence_centrality(example_matrix)
        assert centrality.exerted[1] == pytest.approx(0.9 + 0.6 + 0.5 + 0.6, abs=1e-12)
        assert centrality.received[0] == pytest.approx(0.9 + 0.1 + 0.3 + 0.2, abs=1e-12)

    def test_identity_all_zero(self):
        centrality = influence_centrality(InfluenceMatrix(np.eye(5)))
        assert np.array_equal(centrality.exerted, np.zeros(5))
        assert np.array_equal(centrality.received, np.zeros(5))
