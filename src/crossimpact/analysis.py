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
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CrossImpactError, DegenerateRankingError, DomainError, InputError
from .model import InfluenceMatrix, PerformanceVector, SimulationTrace

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
        if not (self.ihdi > 0.0) or not math.isfinite(self.ihdi):
            raise DomainError(f"index value must be positive and finite, got {self.ihdi}")
        scale = max(abs(self.mean_w), abs(self.qc * self.ihdi), 1e-300)
        if abs(self.qc * self.ihdi - self.mean_w) > QC_IDENTITY_RTOL * scale:
            raise DomainError(
                "inconsistent quality point: qc * ihdi must reproduce mean_w "
                f"(got {self.qc} * {self.ihdi} vs {self.mean_w})"
            )


def quality_coefficient(performance: PerformanceVector, ihdi: float) -> QualityPoint:
    """Ratio of mean subsystem performance to the composite index.

    The index must be positive; indices are defined on [0, 1], so values
    above 1 are computed but flagged with a warning.
    """
    if not math.isfinite(ihdi) or ihdi <= 0.0:
        raise DomainError(f"index value must be positive and finite, got {ihdi}")
    if ihdi > 1.0:
        warnings.warn(
            f"index value {ihdi} exceeds 1; composite indices are defined on [0, 1]",
            stacklevel=2,
        )
    mean_w = float(np.mean(performance.values))
    return QualityPoint(performance.timestamp, float(ihdi), mean_w, mean_w / float(ihdi))


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
    band around zero slope that still counts as stationary.
    """
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
    xc = x - x.mean()
    slope = float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
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
    if not np.all(np.isfinite(a)):
        raise DomainError("eigendecomposition needs finite entries")
    try:
        values, vectors = np.linalg.eigh(0.5 * (a + a.T))  # symmetrise at rounding level
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
        if sorted(self.order) != list(range(len(self.order))):
            raise DomainError(f"ranking order must be a permutation of 0..n-1, got {self.order}")
        if len(self.order) != len(self.loadings):
            raise DomainError("ranking needs one loading per ordered subsystem")
        if any(b > a for a, b in zip(self.loadings, self.loadings[1:])):
            raise DomainError("ranking loadings must be non-increasing")
        if any(not (-1e-12 <= r <= 1.0 + 1e-12) for r in self.explained_variance):
            raise DomainError("explained-variance ratios must lie in [0, 1]")
        if abs(sum(self.explained_variance) - 1.0) > 1e-9:
            raise DomainError("explained-variance ratios must sum to 1")


def observation_matrix(trace: SimulationTrace, design: str = "column-sums") -> np.ndarray:
    """One observation row per trace step; features per the design."""
    if design == "column-sums":
        return np.array([s.influence.entries.sum(axis=0) for s in trace.steps])
    if design == "flattened":
        return np.array([s.influence.entries.ravel() for s in trace.steps])
    raise InputError(f"unknown observation design {design!r} (expected one of {OBSERVATION_DESIGNS})")


def ranking_from_observations(observations: np.ndarray, size: int, design: str) -> InfluenceRanking:
    """PCA ranking from an already-built observation matrix."""
    x = np.asarray(observations, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError("ranking needs at least 2 observations")
    centered = x - x.mean(axis=0)
    if not np.any(np.var(centered, axis=0) > 0.0):
        raise DegenerateRankingError(
            "observation matrix has zero variance (constant trace): all subsystems are tied"
        )
    cov = centered.T @ centered / (x.shape[0] - 1)
    values, vectors = jacobi_eigendecomposition(cov)
    clipped = np.clip(values, 0.0, None)
    ratios = clipped / clipped.sum()
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


class Centrality(NamedTuple):
    """Off-diagonal row/column totals of one strength matrix."""

    exerted: np.ndarray   # per subsystem j: strength it exerts on the others
    received: np.ndarray  # per subsystem i: strength incident on it


def influence_centrality(matrix: InfluenceMatrix) -> Centrality:
    diag = np.diagonal(matrix.entries)
    exerted = matrix.entries.sum(axis=0) - diag
    received = matrix.entries.sum(axis=1) - diag
    return Centrality(exerted, received)
