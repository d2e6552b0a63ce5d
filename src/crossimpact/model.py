"""Core types and forward dynamics of the coupled influence network.

The system is a set of societal subsystems (education, health, income,
security, technology/demography by default) whose pairwise influence is
carried by a dynamic relationship-strength matrix.  Each step:

  1. every off-diagonal strength is revised from the ratio of the two
     subsystems' latest performance changes (``update_relationship``),
  2. next-step performance is aggregated as the strength-weighted sum of
     fixed utility weights (``compute_weights``),
  3. an optional additive policy emphasis is applied, and the result is
     clipped to the normalized [0, 1] scale when enabled.

All types are immutable value objects; all operations are pure functions,
so independent simulations can run concurrently and repeated runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, InputError, SequencingError, ShapeError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .scenario_io import Scenario

DEFAULT_SUBSYSTEM_NAMES = (
    "education",
    "health-nutrition",
    "income-insurance",
    "security-legal",
    "technology-demography",
)


def _frozen_array(values, shape_name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ShapeError(f"{shape_name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SubsystemSet:
    """Ordered labels of the principal subsystems under study."""

    names: tuple[str, ...] = DEFAULT_SUBSYSTEM_NAMES

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise ValidationError(["subsystem set needs at least 2 members"])
        if any(not n for n in self.names):
            raise ValidationError(["subsystem names must be non-empty"])
        if len(set(self.names)) != len(self.names):
            raise ValidationError(["subsystem names must be unique"])

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class ModelOptions:
    """Numerical conventions of a run.

    clamp       keep relationship strengths on the normalized [0, 1] scale
    eps_delta   magnitude below which a performance delta counts as zero
    normalize_w keep performance metrics inside [0, 1]
    """

    clamp: bool = True
    eps_delta: float = 1e-9
    normalize_w: bool = True

    def __post_init__(self):
        if not (self.eps_delta > 0.0) or not math.isfinite(self.eps_delta):
            raise DomainError(f"eps_delta must be a positive finite number, got {self.eps_delta}")


DEFAULT_OPTIONS = ModelOptions()


@dataclass(frozen=True, eq=False)
class PerformanceVector:
    """Normalized performance metrics, one per subsystem, at one step."""

    values: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, "performance values", 1))
        object.__setattr__(self, "timestamp", int(self.timestamp))
        if not np.all(np.isfinite(self.values)):
            raise DomainError("performance values must all be finite")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerformanceVector):
            return NotImplemented
        return self.timestamp == other.timestamp and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """Grid of dynamic relationship strengths at one step.

    Entry (i, j) is the strength with which subsystem j bears on
    subsystem i.  Entries are non-negative, the diagonal is pinned to 1
    (a subsystem fully tracks itself), and in clamped runs every entry
    stays within [0, 1].
    """

    entries: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "influence entries", 2))
        object.__setattr__(self, "timestamp", int(self.timestamp))
        n, m = self.entries.shape
        if n != m or n < 2:
            raise ShapeError(f"influence matrix must be square with size >= 2, got {n}x{m}")
        if not np.all(np.isfinite(self.entries)):
            raise DomainError("influence entries must all be finite")
        if np.any(self.entries < 0.0):
            raise DomainError("influence entries must be non-negative")
        if not np.all(np.diagonal(self.entries) == 1.0):
            raise DomainError("influence matrix diagonal must be exactly 1")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfluenceMatrix):
            return NotImplemented
        return self.timestamp == other.timestamp and np.array_equal(self.entries, other.entries)


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Fixed utility weight factors; time-invariant by definition."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "utility entries", 2))
        n, m = self.entries.shape
        if n != m or n < 2:
            raise ShapeError(f"utility matrix must be square with size >= 2, got {n}x{m}")
        if not np.all(np.isfinite(self.entries)):
            raise DomainError("utility entries must all be finite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UtilityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)


@dataclass(frozen=True, eq=False)
class PolicyIntervention:
    """Additive exogenous emphasis applied to performance before clipping."""

    emphasis: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "emphasis", _frozen_array(self.emphasis, "policy emphasis", 1))
        object.__setattr__(self, "timestamp", int(self.timestamp))
        if not np.all(np.isfinite(self.emphasis)):
            raise DomainError("policy emphasis must be finite")

    @classmethod
    def zero(cls, size: int, timestamp: int = 0) -> "PolicyIntervention":
        return cls(np.zeros(size), timestamp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyIntervention):
            return NotImplemented
        return self.timestamp == other.timestamp and np.array_equal(self.emphasis, other.emphasis)


class Branch(IntEnum):
    """Which case of the relationship-strength update fired."""

    ONE_ZERO = 1  # exactly one delta is (numerically) zero -> strength drops to 0
    EQUAL = 2     # deltas equal within tolerance (incl. both zero) -> keep prior
    RATIO = 3     # signed ratio-of-change rule


class RelationshipUpdate(NamedTuple):
    value: float
    branch: Branch
    degenerate: bool = False


@dataclass(frozen=True)
class BranchCounts:
    """How many off-diagonal cells took each update branch in one step."""

    one_zero: int = 0
    equal: int = 0
    ratio: int = 0
    degenerate: int = 0  # ratio cells whose denominator vanished (absorbed to 0)

    def total(self) -> int:
        return self.one_zero + self.equal + self.ratio


class StepResult(NamedTuple):
    performance: PerformanceVector
    influence: InfluenceMatrix
    branches: BranchCounts


@dataclass(frozen=True)
class TraceStep:
    timestamp: int
    performance: PerformanceVector
    influence: InfluenceMatrix
    branches: BranchCounts


@dataclass(frozen=True)
class SimulationTrace:
    """Ordered per-step outputs of a simulation run."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise InputError("a trace needs at least one step")
        size = self.steps[0].performance.size
        prev_t = None
        for s in self.steps:
            if s.performance.size != size or s.influence.size != size:
                raise ShapeError("all trace steps must share one subsystem count")
            if s.timestamp != s.performance.timestamp or s.timestamp != s.influence.timestamp:
                raise SequencingError(f"trace step {s.timestamp} carries mismatched timestamps")
            if prev_t is not None and s.timestamp != prev_t + 1:
                raise SequencingError(
                    f"trace timestamps must increase by 1, got {prev_t} then {s.timestamp}"
                )
            prev_t = s.timestamp

    @property
    def size(self) -> int:
        return self.steps[0].performance.size

    def __len__(self) -> int:
        return len(self.steps)


def compute_weights(influence: InfluenceMatrix, utility: UtilityMatrix) -> PerformanceVector:
    """Aggregate performance: for each subsystem i, the sum over j of
    strength(i, j) * utility(i, j).

    Returns the raw aggregate (no clipping); the timestamp is copied from
    the influence matrix.
    """
    if influence.size != utility.size:
        raise ShapeError(
            f"influence is {influence.size}x{influence.size} but utility is "
            f"{utility.size}x{utility.size}"
        )
    weights = np.einsum("ij,ij->i", influence.entries, utility.entries)
    return PerformanceVector(weights, influence.timestamp)


def update_relationship(
    dw_i: float,
    dw_j: float,
    r_prev: float,
    opts: ModelOptions = DEFAULT_OPTIONS,
) -> RelationshipUpdate:
    """Revise one relationship strength from the latest performance deltas.

    Cases, checked in order (a delta is "zero" when |d| <= eps_delta):

      * both deltas zero: no observed change, keep ``r_prev``;
      * exactly one delta zero: the pair has decoupled, strength 0
        (this also agrees with the ratio rule's limit as dw_i -> 0);
      * deltas agree within eps_delta: no evidence to revise, keep
        ``r_prev``;
      * otherwise, with x = dw_i / (dw_j * r_prev), the new strength is
        |x| when x > 0 and 1/|x| when x < 0, clamped to [0, 1] when
        ``opts.clamp``.

    A vanishing denominator in the ratio case (``r_prev`` zero, "no
    relation") is absorbing: the result is 0 and the update is flagged
    degenerate.  The result is always non-negative.
    """
    if not (math.isfinite(dw_i) and math.isfinite(dw_j) and math.isfinite(r_prev)):
        raise DomainError("relationship update requires finite deltas and strength")
    if r_prev < 0.0:
        raise DomainError(f"prior strength must be non-negative, got {r_prev}")

    eps = opts.eps_delta
    i_zero = abs(dw_i) <= eps
    j_zero = abs(dw_j) <= eps

    if i_zero and j_zero:
        return RelationshipUpdate(r_prev, Branch.EQUAL)
    if i_zero != j_zero:
        return RelationshipUpdate(0.0, Branch.ONE_ZERO)
    if abs(dw_i - dw_j) <= eps:
        return RelationshipUpdate(r_prev, Branch.EQUAL)

    denom = dw_j * r_prev
    if denom == 0.0:
        # r_prev == 0 (or denominator underflow): "no relation" absorbs.
        return RelationshipUpdate(0.0, Branch.RATIO, degenerate=True)
    x = dw_i / denom
    if x == 0.0:
        # only reachable through extreme underflow; treat as absorbed
        return RelationshipUpdate(0.0, Branch.RATIO, degenerate=True)
    value = abs(x) if x > 0.0 else 1.0 / abs(x)
    if opts.clamp:
        value = min(max(value, 0.0), 1.0)
    return RelationshipUpdate(value, Branch.RATIO)


def _updated_entries(
    deltas: np.ndarray, prior: np.ndarray, opts: ModelOptions
) -> tuple[np.ndarray, BranchCounts]:
    """Apply ``update_relationship`` to every off-diagonal cell at once;
    the diagonal stays 1.

    Cell (i, j) pairs ``deltas[i]`` with ``deltas[j]`` and ``prior[i, j]``.
    Each branch is a boolean mask over the whole matrix, evaluated with the
    scalar rule's operations in its order, so every value and branch count
    is bit-for-bit the scalar rule's.
    """
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(prior))):
        raise DomainError("relationship update requires finite deltas and strength")
    if np.any(prior < 0.0):
        raise DomainError(f"prior strength must be non-negative, got {prior[prior < 0.0][0]}")
    eps = opts.eps_delta
    d_i, d_j = deltas[:, None], deltas[None, :]
    zero = np.abs(deltas) <= eps
    zero_i, zero_j = zero[:, None], zero[None, :]
    # Division by zero, overflow and underflow are expected: the masks
    # discard the cells outside the ratio branch, and ratio cells take the
    # IEEE result, as the scalar rule does with Python floats.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        one_zero = zero_i != zero_j
        equal = ~one_zero & ((zero_i & zero_j) | (np.abs(d_i - d_j) <= eps))
        ratio = ~(one_zero | equal)
        denom = d_j * prior
        x = d_i / denom
        degenerate = ratio & ((denom == 0.0) | (x == 0.0))
        value = np.where(x > 0.0, np.abs(x), 1.0 / np.abs(x))
        if opts.clamp:
            value = np.minimum(np.maximum(value, 0.0), 1.0)
    out = np.where(equal, prior, np.where(one_zero | degenerate, 0.0, value))
    np.fill_diagonal(out, 1.0)
    # A finite delta always equals itself, so every diagonal cell is in
    # ``equal`` and in no other mask.
    counts = BranchCounts(
        int(np.count_nonzero(one_zero)),
        int(np.count_nonzero(equal)) - prior.shape[0],
        int(np.count_nonzero(ratio)),
        int(np.count_nonzero(degenerate)),
    )
    return out, counts


def update_matrix(
    w_prev: PerformanceVector,
    w_curr: PerformanceVector,
    r_curr: InfluenceMatrix,
    opts: ModelOptions = DEFAULT_OPTIONS,
) -> tuple[InfluenceMatrix, BranchCounts]:
    """Advance the full strength matrix one step from consecutive
    performance snapshots.  Returns the advanced matrix (timestamp + 1)
    and the per-branch cell counts."""
    if not (w_prev.size == w_curr.size == r_curr.size):
        raise ShapeError(
            f"sizes disagree: w_prev={w_prev.size}, w_curr={w_curr.size}, r={r_curr.size}"
        )
    if w_prev.timestamp + 1 != w_curr.timestamp or w_curr.timestamp != r_curr.timestamp:
        raise SequencingError(
            "expected consecutive snapshots with the matrix at the later step, got "
            f"t(w_prev)={w_prev.timestamp}, t(w_curr)={w_curr.timestamp}, "
            f"t(r)={r_curr.timestamp}"
        )
    with np.errstate(over="ignore"):  # an infinite delta is rejected as DomainError
        deltas = w_curr.values - w_prev.values
    entries, counts = _updated_entries(deltas, r_curr.entries, opts)
    return InfluenceMatrix(entries, r_curr.timestamp + 1), counts


def step(
    w_prev: PerformanceVector,
    w_curr: PerformanceVector,
    r_curr: InfluenceMatrix,
    utility: UtilityMatrix,
    policy: PolicyIntervention | None = None,
    opts: ModelOptions = DEFAULT_OPTIONS,
) -> StepResult:
    """One full update: advance strengths, aggregate performance, apply
    the additive policy emphasis, clip to [0, 1] when normalizing."""
    r_next, counts = update_matrix(w_prev, w_curr, r_curr, opts)
    w_raw = compute_weights(r_next, utility)
    values = w_raw.values
    if policy is not None:
        if policy.emphasis.shape[0] != values.shape[0]:
            raise ShapeError(
                f"policy emphasis has size {policy.emphasis.shape[0]}, expected {values.shape[0]}"
            )
        values = values + policy.emphasis
    if opts.normalize_w:
        values = np.clip(values, 0.0, 1.0)
    return StepResult(PerformanceVector(values, r_next.timestamp), r_next, counts)


def simulate(scenario: "Scenario", horizon: int) -> SimulationTrace:
    """Run ``horizon`` steps from the scenario's seed state.

    Step s (1-based) consumes the policy scheduled under key s and emits
    the state at timestamp s + 1.  Identical scenarios always produce
    identical traces.
    """
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    violations = scenario.validate(horizon)
    if violations:
        raise ValidationError(violations)
    utility = scenario.resolved_utility()
    opts = scenario.options
    w_prev, w_curr, r_curr = scenario.w0, scenario.w1, scenario.r1
    steps: list[TraceStep] = []
    for s in range(1, horizon + 1):
        policy = scenario.policy.get(s)
        w_next, r_next, counts = step(w_prev, w_curr, r_curr, utility, policy, opts)
        steps.append(TraceStep(w_next.timestamp, w_next, r_next, counts))
        w_prev, w_curr, r_curr = w_curr, w_next, r_next
    return SimulationTrace(tuple(steps))
