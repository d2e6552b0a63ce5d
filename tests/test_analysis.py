"""Quality coefficient, trend classification, eigendecomposition and ranking."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossimpact import (
    CrossImpactError,
    DegenerateRankingError,
    DomainError,
    InputError,
    ParseError,
    QualityPoint,
    SeriesTable,
    ShapeError,
    SimulationTrace,
    influence_ranking,
    jacobi_eigendecomposition,
    quality_coefficient,
    trend,
    write_trace,
)
from crossimpact.analysis import ranking_from_observations
from crossimpact.cli import main
from conftest import random_trace


def _audit(values, ihdi, t: int = 0) -> QualityPoint:
    """The quality point of one performance vector against one index value."""
    [point] = quality_coefficient(SeriesTable([t], [values], [ihdi]))
    return point


class TestQualityCoefficient:
    def test_example_ratio(self):
        point = _audit(np.full(5, 0.72), 0.8, t=3)
        assert point.qc == pytest.approx(0.9, abs=1e-12)
        assert point.timestamp == 3

    def test_ideal_unity(self):
        assert _audit(np.full(5, 0.5), 0.5).qc == 1.0

    def test_zero_performance(self):
        assert _audit(np.zeros(5), 0.5).qc == 0.0

    @pytest.mark.parametrize("bad", [0.0, -0.2, float("nan")])
    def test_nonpositive_index_rejected(self, bad):
        # the audit reads its index from a series table, which keeps it in (0, 1]
        with pytest.raises(ParseError, match=re.escape("IHDI values must lie in (0, 1]")):
            _audit(np.full(5, 0.5), bad)

    def test_missing_index_column(self):
        with pytest.raises(InputError, match="series lacks the IHDI column"):
            quality_coefficient(SeriesTable([0, 1], np.full((2, 3), 0.5)))

    def test_inconsistent_point_rejected(self):
        with pytest.raises(DomainError):
            QualityPoint(0, ihdi=0.8, mean_w=0.72, qc=0.5)

    @given(
        seed=st.integers(0, 10**6),
        ihdi=st.floats(1e-6, 1.0, allow_nan=False),
    )
    def test_identity_holds_for_every_point(self, seed, ihdi):
        rng = np.random.default_rng(seed)
        point = _audit(rng.uniform(0, 1, 5), ihdi)
        scale = max(abs(point.mean_w), 1e-300)
        assert abs(point.qc * point.ihdi - point.mean_w) <= 1e-12 * scale


def _oracle(series: SeriesTable) -> list[QualityPoint]:
    """The per-row rule the audit replaces: one ``np.mean`` per row."""
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
    """The audit computes every row's mean in one ``mean(axis=1)`` pass;
    the per-row ``np.mean`` rule is its oracle."""

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
        # the whole table in one call, and each row as a table of its own
        points = quality_coefficient(series)
        assert points == _oracle(series)
        rows = zip(series.values, series.ihdi, series.timestamps)
        assert [_audit(values, ihdi, t) for values, ihdi, t in rows] == points

    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.2, float("nan"), float("inf"), float("-inf")])
    def test_bad_index_names_the_first_bad_value(self, bad, tmp_path, capsys):
        # the qc command's series reader names the line and value of the
        # first bad index, not of a later one
        path = tmp_path / "series.csv"
        rows = (f"{t},0.5,0.5,0.5,{v!r}\n" for t, v in enumerate([0.5, bad, 0.7, -1.0]))
        path.write_text("t,S1,S2,S3,IHDI\n" + "".join(rows))
        assert main(["qc", "--series", str(path)]) == 1
        rule = "is outside (0, 1]" if np.isfinite(bad) else "is not a finite number"
        assert capsys.readouterr().err == f"error: line 3: IHDI = {repr(bad).removesuffix('.0')} {rule}\n"

    @pytest.mark.parametrize("ihdi", [[0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]]])
    def test_one_index_value_per_row(self, ihdi):
        with pytest.raises(ShapeError, match="one IHDI value per row"):
            SeriesTable([0, 1, 2], np.full((3, 2), 0.6), ihdi)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficient_rejected(self):
        # 0.5 / 5e-324 is not a binary64; an infinite coefficient would
        # reach the quality table, which cannot read it back
        # a numerical failure on valid input, as an overflowing trend slope is
        with pytest.raises(CrossImpactError, match="quality coefficient overflows") as caught:
            _audit(np.full(3, 0.5), 5e-324)
        assert not isinstance(caught.value, DomainError)
        series = SeriesTable([0, 1], np.full((2, 2), 0.5), [0.5, 1e-310])
        with pytest.raises(CrossImpactError, match="quality coefficient overflows"):
            quality_coefficient(series)
        # a table need not be normalized, so its mean can overflow too
        with pytest.raises(CrossImpactError, match="mean performance inf"):
            _audit(np.full(2, 1e308), 0.5)


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
    r = np.full((steps, 5, 5), 0.5)
    for k in range(steps):
        r[k, :, column] = rng.uniform(0.1, 0.9)
    r[:, np.arange(5), np.arange(5)] = 1.0
    return SimulationTrace(np.full((steps, 5), 0.5), r, [(0, 20, 0, 0)] * steps, 2)  # all 20 cells equal


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
        frozen = SimulationTrace(base.w, np.repeat(base.r[:1], len(base), axis=0), base.branches, base.start)
        with pytest.raises(DegenerateRankingError):
            influence_ranking(frozen)

    def test_short_trace_rejected(self):
        rng = np.random.default_rng(6)
        base = varying_column_trace(rng, 0, steps=1)
        single = SimulationTrace(base.w[:1], base.r[:1], base.branches[:1], base.start)
        with pytest.raises(InputError):
            influence_ranking(single)

    def test_unknown_design_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InputError):
            influence_ranking(varying_column_trace(rng, 0), design="row-sums")

    def test_one_observation_is_too_few(self):
        with pytest.raises(InputError) as raised:
            ranking_from_observations(np.ones((1, 5)), 5, "column-sums")
        assert type(raised.value) is InputError and str(raised.value) == "ranking needs at least 2 observations"

    def test_an_unknown_design_is_refused_at_every_entry(self, tmp_path, capsys):
        # each entry takes the design as a string; none may rank with it
        trace = varying_column_trace(np.random.default_rng(8), 0)
        with pytest.raises(CrossImpactError, match="unknown observation design 'bogus'"):
            ranking_from_observations(trace.r.sum(axis=1), 5, "bogus")
        with pytest.raises(InputError, match="'bogus'"):
            influence_ranking(trace, "bogus")
        path = tmp_path / "trace.csv"
        path.write_text(write_trace(trace, "table"))
        assert main(["rank", "--trace", str(path), "--design", "bogus"]) == 1
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_loadings_keep_ascending_subsystem_order(self, seed):
        # four varying columns among 53; most of the 49 flat ones tie at
        # loading 0, enough ties that an unstable sort reorders some of them
        observations = np.full((8, 53), 0.5)
        observations[:, [2, 13, 16, 25]] = np.random.default_rng(seed).uniform(size=(8, 4))
        ranking = ranking_from_observations(observations, 53, "column-sums")
        ties = [k for k in range(52) if ranking.loadings[k] == ranking.loadings[k + 1]]
        assert ties, "no equal loadings: the order of ties goes unchecked"
        assert all(ranking.order[k] < ranking.order[k + 1] for k in ties)

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

