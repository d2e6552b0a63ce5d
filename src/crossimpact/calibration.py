"""Calibration of the engine's fixed quantities from observed data.

Two inverse problems are solved here:

* ``solve_utility_min_norm`` — given a strength matrix and an observed
  performance vector, recover the fixed utility weights.  Each row is a
  single linear constraint in |S| unknowns, so the system is
  underdetermined; the minimum-Euclidean-norm solution is obtained with a
  Lagrange multiplier per row, which reduces to the closed form
  ``U[i, j] = R[i, j] * W[i] / sum_k R[i, k]**2``.

* ``tune_initial_r`` — given two consecutive performance snapshots and
  fixed utility weights, search [0, 1] for seed strengths whose predicted
  performance (through a pluggable policy function) matches the later
  snapshot, then advance them one step with the strength-update rule.
  The search starts from one fixed guess (0.5 off the diagonal, 1 on it)
  and is a deterministic coordinate sweep.  The policy function must be
  monotone in each strength coordinate, as the strength-weighted sum is
  (it is linear in each one), so each coordinate is bisected where the
  residual changes sign on [0, 1] and otherwise moved to the nearer end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InfeasibleRowError, SequencingError, ShapeError
from .model import DEFAULT_OPTIONS, InfluenceMatrix, PerformanceVector, UtilityMatrix, _checked_update

CONSTRAINT_TOL = 1e-9


def _forward(r_row: np.ndarray, u_row: np.ndarray) -> float:
    return float(np.einsum("j,j->", r_row, u_row))


def _strength_grid(matrix) -> np.ndarray:
    """Accept a typed matrix or any finite square grid.

    Calibration only needs finite entries; unlike the dynamics, it must
    also handle observed grids with all-zero rows, which the stricter
    influence type (unit diagonal) cannot represent.
    """
    entries = np.asarray(getattr(matrix, "entries", matrix), dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ShapeError(f"calibration grid must be square, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise DomainError("calibration grid must have finite entries")
    return entries


@dataclass(frozen=True)
class PolicyFunction:
    """Evaluator predicting one subsystem's performance from its strength
    and utility rows; the prediction must be monotone in each strength
    coordinate, because the tune search bisects each one.  ``monotone``
    must therefore be True.  It stays a field because the benchmark's
    tracer builds a policy from three positional arguments; it can go
    once the benchmark stops passing it."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], float]
    monotone: bool = True

    def __post_init__(self):
        if not self.monotone:
            raise DomainError(f"policy function {self.name!r} must be monotone in each strength coordinate")

    @classmethod
    def forward_default(cls) -> "PolicyFunction":
        """The strength-weighted utility sum used by the simulator itself."""
        return cls("forward-sum", _forward)


@dataclass(frozen=True)
class TuneOptions:
    tol: float = 1e-6
    max_sweeps: int = 200

    def __post_init__(self):
        if not (self.tol > 0.0) or not math.isfinite(self.tol):
            raise DomainError(f"tol must be positive and finite, got {self.tol}")
        if self.max_sweeps < 1:
            raise DomainError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass(frozen=True)
class CalibrationReport:
    """Per-row outcome of a calibration run.

    The convergence flags are derived, not stored: a row converged iff
    its residual is within ``tol``.
    """

    tol: float
    residuals: tuple[float, ...]
    sweeps: tuple[int, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "residuals", tuple(float(r) for r in self.residuals))
        object.__setattr__(self, "sweeps", tuple(int(s) for s in self.sweeps))
        object.__setattr__(self, "notes", tuple(self.notes))
        if not (0.0 < self.tol < math.inf):
            raise DomainError(f"tol must be positive and finite, got {self.tol}")
        if not all(0.0 <= r < math.inf for r in self.residuals):
            raise DomainError("residuals must be finite and non-negative")

    @property
    def converged(self) -> tuple[bool, ...]:
        return tuple(r <= self.tol for r in self.residuals)

    @property
    def all_converged(self) -> bool:
        return all(self.converged)


def solve_utility_min_norm(
    influence, performance: PerformanceVector
) -> tuple[UtilityMatrix, CalibrationReport]:
    """Recover the minimum-norm fixed utility weights reproducing the
    observed performance through the strength-weighted sum.

    ``influence`` may be an InfluenceMatrix or any finite square grid.
    Rows decouple, so each row is solved independently: the multiplier
    lambda_i = W[i] / sum_k R[i, k]**2 scales the strength row into the
    utility row.  An all-zero strength row is feasible only for a zero
    target (the utility row is then zero, with a note); otherwise the
    row is reported infeasible.
    """
    r = _strength_grid(influence)
    if r.shape[0] != performance.size:
        raise ShapeError(
            f"strength grid is {r.shape[0]}x{r.shape[1]} but performance has "
            f"size {performance.size}"
        )
    n = r.shape[0]
    w = performance.values
    u = np.zeros((n, n))
    residuals = []
    notes = []
    # Overflow is rejected rather than warned about: an infinite sum of
    # squares just below, an infinite weight by UtilityMatrix.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            ss = float(np.dot(r[i], r[i]))
            if math.isinf(ss):
                raise DomainError(f"row {i + 1}: the strengths' sum of squares overflows")
            if ss == 0.0:
                if w[i] != 0.0:
                    raise InfeasibleRowError(
                        i,
                        f"row {i + 1} infeasible: all-zero strengths cannot produce "
                        f"nonzero target {w[i]!r}",
                    )
                notes.append(f"row {i + 1} degenerate: all-zero strengths with zero target")
                residuals.append(0.0)
                continue
            u[i] = r[i] * (w[i] / ss)
            if not np.isfinite(u[i]).all():
                raise DomainError(f"row {i + 1}: the min-norm utility weights overflow")
            residuals.append(abs(_forward(r[i], u[i]) - w[i]))
    report = CalibrationReport(CONSTRAINT_TOL, tuple(residuals), (0,) * n, tuple(notes))
    return UtilityMatrix(u), report


def verify_min_norm(
    utility,
    influence,
    performance: PerformanceVector,
) -> bool:
    """Certify that each utility row is the shortest one keeping its
    constraint.

    Adding a direction orthogonal to the strength row r_i keeps the
    reproduced performance, so the shortest such row is the projection
    p_i of u_i onto r_i (zero for an all-zero strength row), and u_i is
    minimal iff ||u_i|| <= ||p_i||, with 1e-9 of slack (relative above
    ||u_i|| = 1).  Both matrix arguments may be typed matrices or raw
    square grids.
    """
    grid = _strength_grid(influence)
    u_grid = _strength_grid(utility)
    if not (u_grid.shape[0] == grid.shape[0] == performance.size):
        raise ShapeError("utility, influence and performance sizes must agree")
    rr = np.einsum("ij,ij->i", grid, grid)
    projected = np.abs(np.einsum("ij,ij->i", u_grid, grid)) / np.sqrt(np.where(rr > 0.0, rr, 1.0))
    lengths = np.linalg.norm(u_grid, axis=1)
    return bool(np.all(lengths <= projected + 1e-9 * np.maximum(lengths, 1.0)))


def _seed_guess(n: int) -> np.ndarray:
    """The strengths a tune search starts from: 0.5, the middle of [0, 1],
    off the diagonal and 1 on it."""
    guess = np.full((n, n), 0.5)
    np.fill_diagonal(guess, 1.0)
    return guess


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> tuple[float, float]:
    """Root of f on [lo, hi] given a sign change, to |f| <= tol."""
    if abs(f_lo) <= tol:
        return lo, f_lo
    if abs(f_hi) <= tol:
        return hi, f_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= tol or mid == lo or mid == hi:
            return mid, f_mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def _tune_row(
    i: int,
    row: np.ndarray,
    u_row: np.ndarray,
    target: float,
    policy: PolicyFunction,
    opts: TuneOptions,
) -> tuple[float, int, list[str]]:
    """Sweep the off-diagonal coordinates of one strength row until the
    predicted performance matches the target.  Mutates ``row`` in place
    and returns (signed residual, sweeps used, notes)."""
    notes: list[str] = []

    def f_at(j: int, v: float) -> float:
        old = row[j]
        row[j] = v
        out = policy.fn(row, u_row) - target
        row[j] = old
        return out

    residual = policy.fn(row, u_row) - target
    sweeps = 0
    while abs(residual) > opts.tol and sweeps < opts.max_sweeps:
        sweeps += 1
        moved = False
        for j in range(row.shape[0]):
            if j == i:
                continue
            f_lo, f_hi = f_at(j, 0.0), f_at(j, 1.0)
            if f_lo * f_hi <= 0.0:
                value, f_value = _bisect(lambda v: f_at(j, v), 0.0, 1.0, f_lo, f_hi, opts.tol)
                row[j] = value
                residual = f_value
                moved = True
            else:
                # no root on this coordinate; move to the closer end
                end, f_end = (0.0, f_lo) if abs(f_lo) < abs(f_hi) else (1.0, f_hi)
                if abs(f_end) < abs(residual):
                    row[j] = end
                    residual = f_end
                    moved = True
            if abs(residual) <= opts.tol:
                break
        if abs(residual) > opts.tol and not moved:
            notes.append(
                f"row {i + 1}: target unreachable within bracket [0, 1] "
                "(prediction on the same side of the target at both ends of "
                "every coordinate)"
            )
            break
    if abs(residual) > opts.tol and not notes:
        notes.append(f"row {i + 1}: not converged after {sweeps} sweeps")
    return residual, sweeps, notes


def tune_initial_r(
    w_prev: PerformanceVector,
    w_curr: PerformanceVector,
    utility: UtilityMatrix,
    policy: PolicyFunction | None = None,
    opts: TuneOptions = TuneOptions(),
) -> tuple[InfluenceMatrix, InfluenceMatrix, CalibrationReport]:
    """Search for seed strengths matching the later performance snapshot,
    then advance them one step.

    Every row starts from the seed guess, 0.5 off the diagonal and 1 on
    it.  Row by row (rows are independent), the off-diagonal coordinates
    are swept in ascending order within [0, 1] until the policy function's
    prediction is within ``opts.tol`` of the target; the row is
    underdetermined, so the first feasible point reached by the
    deterministic sweep is kept.  Rows that cannot converge keep their
    best-found values and are flagged in the report; a prediction that
    overflows is a DomainError.

    Returns the tuned matrix at the earlier step, the matrix advanced by
    the strength-update rule (default model options) using the two
    snapshots, and the report.
    """
    if not (w_prev.size == w_curr.size == utility.size):
        raise ShapeError("snapshot and utility sizes must agree")
    if w_prev.timestamp + 1 != w_curr.timestamp:
        raise SequencingError(
            f"snapshots must be consecutive, got t={w_prev.timestamp} then t={w_curr.timestamp}"
        )
    policy = policy or PolicyFunction.forward_default()
    n = utility.size
    entries = _seed_guess(n)

    residuals = []
    sweeps_used = []
    notes: list[str] = []
    for i in range(n):
        residual, sweeps, row_notes = _tune_row(
            i, entries[i], utility.entries[i], float(w_curr.values[i]), policy, opts
        )
        if not math.isfinite(residual):
            raise DomainError(f"row {i + 1}: the predicted performance overflows")
        residuals.append(abs(residual))
        sweeps_used.append(sweeps)
        notes.extend(row_notes)

    tuned = InfluenceMatrix(entries, w_prev.timestamp)
    advanced_entries, _ = _checked_update(w_prev.values, w_curr.values, tuned.entries, DEFAULT_OPTIONS)
    advanced = InfluenceMatrix(advanced_entries, w_curr.timestamp)
    report = CalibrationReport(opts.tol, tuple(residuals), tuple(sweeps_used), tuple(notes))
    return tuned, advanced, report
