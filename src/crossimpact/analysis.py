"""Quality auditing and influence ranking.

The quality proportioning coefficient relates mean subsystem performance
to a composite development index on the same [0, 1] scale: values at or
above 0.9 with a stationary or increasing trend indicate a satisfiable
quality of life, and 1.0 is the ideal where the index fully reflects
measured performance.

Subsystem influence is ranked by principal component analysis over the
time series of strength matrices.  The default observation design uses
column sums (total influence exerted by each subsystem); a flattened
design over all matrix entries is available for completeness.  The
symmetric eigendecomposition is LAPACK's, through ``np.linalg.eigh``, so
the n^2 x n^2 covariance of the flattened design is solved at any size
the engine simulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CrossImpactError, DegenerateRankingError, DomainError, InputError
from .model import SimulationTrace

if TYPE_CHECKING:  # pragma: no cover
    from .scenario_io import SeriesTable

SATISFIABLE_FLOOR = 0.9
QC_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class QualityPoint:
    """Mean performance, index value and their ratio at one step."""

    timestamp: int
    ihdi: float
    mean_w: float
    qc: float

    def __post_init__(self):
        object.__setattr__(self, "timestamp", int(self.timestamp))
        if not (0.0 < self.ihdi <= 1.0):
            raise DomainError(f"index value must lie in (0, 1], got {self.ihdi}")
        scale = max(abs(self.mean_w), abs(self.qc * self.ihdi), 1e-300)
        if abs(self.qc * self.ihdi - self.mean_w) > QC_IDENTITY_RTOL * scale:
            raise DomainError(
                "inconsistent quality point: qc * ihdi must reproduce mean_w "
                f"(got {self.qc} * {self.ihdi} vs {self.mean_w})"
            )


def quality_coefficient(series: SeriesTable) -> list[QualityPoint]:
    """Ratio of mean subsystem performance to the composite index, one
    point per row of ``series``, from a single pass over the whole table.

    The index is the table's IHDI column, which ``SeriesTable`` keeps in
    (0, 1]; a table without it is an InputError.  A coefficient that
    overflows is a numerical failure (a CrossImpactError).
    """
    if series.ihdi is None:
        raise InputError(
            "series lacks the IHDI column; quality auditing needs the index "
            "(header t,S1,...,Sn,IHDI)"
        )
    index = series.ihdi
    with np.errstate(over="ignore"):  # an infinite mean or ratio is rejected below
        mean_w = series.values.mean(axis=1)
        qc = mean_w / index
    overflow = np.isinf(qc)
    if overflow.any():
        k = overflow.argmax()
        raise CrossImpactError(
            f"quality coefficient overflows: mean performance {mean_w[k]} over index value {index[k]}"
        )
    return [
        QualityPoint(t, i, m, q) for t, i, m, q in zip(series.timestamps, index.tolist(), mean_w.tolist(), qc.tolist())
    ]


@dataclass(frozen=True)
class TrendReport:
    """Least-squares trend of the quality coefficient over a window."""

    series: tuple[QualityPoint, ...]
    slope: float
    classification: str  # "increasing" | "stationary" | "decreasing"
    satisfiable: bool


def trend(series: list[QualityPoint], slope_eps: float = 1e-3) -> TrendReport:
    """Classify the quality-coefficient trend and judge satisfiability.

    Satisfiable means every point in the window is at or above the 0.9
    floor and the trend is not decreasing.  ``slope_eps`` is the dead
    band around zero slope that still counts as stationary; it must be a
    finite number >= 0.  A slope that overflows is a numerical failure.
    """
    if not (math.isfinite(slope_eps) and slope_eps >= 0.0):
        raise DomainError(f"slope_eps must be a finite number >= 0, got {slope_eps}")
    points = tuple(series)
    if len(points) < 2:
        raise InputError(f"trend needs at least 2 points, got {len(points)}")
    for a, b in zip(points, points[1:]):
        if b.timestamp <= a.timestamp:
            raise InputError(
                f"trend timestamps must be strictly increasing, got {a.timestamp} then {b.timestamp}"
            )
    x = np.array([p.timestamp for p in points], dtype=float)
    y = np.array([p.qc for p in points], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
    if not math.isfinite(slope):
        raise CrossImpactError("the trend of the quality coefficients overflows: coefficients too large to fit a slope")
    if slope > slope_eps:
        classification = "increasing"
    elif slope < -slope_eps:
        classification = "decreasing"
    else:
        classification = "stationary"
    satisfiable = classification != "decreasing" and all(p.qc >= SATISFIABLE_FLOOR for p in points)
    return TrendReport(points, slope, classification, satisfiable)


# ---------------------------------------------------------------------------
# Symmetric eigendecomposition
# ---------------------------------------------------------------------------

def jacobi_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns) of
    a symmetric matrix, computed by LAPACK through ``np.linalg.eigh``.

    The name is historical: an earlier version used cyclic Jacobi
    rotations.  Eigenvector signs are fixed by making each column's
    largest-magnitude component positive.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DomainError(f"eigendecomposition needs a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("eigendecomposition needs finite entries")
    with np.errstate(over="ignore"):
        symmetric = 0.5 * (a + a.T)  # symmetrise at rounding level
    if not np.isfinite(symmetric).all():
        raise CrossImpactError("eigendecomposition overflows: entries must lie within half the binary64 range")
    try:
        values, vectors = np.linalg.eigh(symmetric)
    except np.linalg.LinAlgError as exc:
        raise CrossImpactError(f"eigendecomposition did not converge: {exc}") from exc
    values, vectors = values[::-1], vectors[:, ::-1]
    pivots = np.argmax(np.abs(vectors), axis=0)
    vectors = vectors * np.where(vectors[pivots, np.arange(a.shape[0])] < 0.0, -1.0, 1.0)
    return values, vectors


# ---------------------------------------------------------------------------
# Influence ranking
# ---------------------------------------------------------------------------

OBSERVATION_DESIGNS = ("column-sums", "flattened")


@dataclass(frozen=True)
class InfluenceRanking:
    """Subsystems ordered by their first-principal-component loading."""

    design: str
    order: tuple[int, ...]                 # subsystem indices, most influential first
    loadings: tuple[float, ...]            # |loading| magnitudes aligned with order
    explained_variance: tuple[float, ...]  # per component, descending

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(k) for k in self.order))
        object.__setattr__(self, "loadings", tuple(float(v) for v in self.loadings))
        object.__setattr__(self, "explained_variance", tuple(float(v) for v in self.explained_variance))
        if self.design not in OBSERVATION_DESIGNS:
            raise DomainError(f"unknown observation design {self.design!r} (expected one of {OBSERVATION_DESIGNS})")
        if sorted(self.order) != list(range(len(self.order))):
            raise DomainError(f"ranking order must be a permutation of 0..n-1, got {self.order}")
        if len(self.order) != len(self.loadings):
            raise DomainError("ranking needs one loading per ordered subsystem")
        if not all(map(math.isfinite, self.loadings)) or any(b > a for a, b in zip(self.loadings, self.loadings[1:])):
            raise DomainError("ranking loadings must be finite and non-increasing")
        if any(not (-1e-12 <= r <= 1.0 + 1e-12) for r in self.explained_variance):
            raise DomainError("explained-variance ratios must lie in [0, 1]")
        if abs(sum(self.explained_variance) - 1.0) > 1e-9:
            raise DomainError("explained-variance ratios must sum to 1")


def observation_matrix(trace: SimulationTrace, design: str = "column-sums") -> np.ndarray:
    """One observation row per trace step; features per the design."""
    if design == "column-sums":
        with np.errstate(over="ignore"):  # an infinite sum fails the ranking's covariance check
            return trace.r.sum(axis=1)
    if design == "flattened":
        return trace.r.reshape(len(trace), -1)
    raise InputError(f"unknown observation design {design!r} (expected one of {OBSERVATION_DESIGNS})")


def ranking_from_observations(observations: np.ndarray, size: int, design: str) -> InfluenceRanking:
    """PCA ranking from an already-built observation matrix."""
    x = np.asarray(observations, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("ranking needs at least 2 observations")
    # Strengths near the binary64 limit (a run with clamp off) overflow the
    # mean, the squares or the products: a numerical failure, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        spread = np.var(centered, axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
    if not (np.isfinite(spread).all() and np.isfinite(cov).all()):
        raise CrossImpactError("the covariance of the observations overflows: strengths too large to rank")
    if not (spread > 0.0).any():
        raise DegenerateRankingError(
            "observation matrix has zero variance (constant trace): all subsystems are tied"
        )
    values, vectors = jacobi_eigendecomposition(cov)
    clipped = np.clip(values, 0.0, None)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = clipped / clipped.sum()
    if not np.isfinite(ratios).all():
        raise CrossImpactError("the covariance's eigenvalues overflow: strengths too large to rank")
    pc1 = vectors[:, 0]
    if design == "column-sums":
        magnitudes = np.abs(pc1)
    elif design == "flattened":
        grid = pc1.reshape(size, size)
        magnitudes = np.sqrt((grid * grid).sum(axis=0))  # aggregate by source subsystem
    else:
        raise InputError(f"unknown observation design {design!r} (expected one of {OBSERVATION_DESIGNS})")
    order = np.argsort(-magnitudes, kind="stable")
    return InfluenceRanking(
        design=design,
        order=tuple(int(k) for k in order),
        loadings=tuple(float(magnitudes[k]) for k in order),
        explained_variance=tuple(float(r) for r in ratios),
    )


def influence_ranking(trace: SimulationTrace, design: str = "column-sums") -> InfluenceRanking:
    """Rank subsystems by influence exerted over the trace window."""
    if len(trace) < 2:
        raise InputError(f"ranking needs a trace of at least 2 steps, got {len(trace)}")
    return ranking_from_observations(observation_matrix(trace, design), trace.size, design)

