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
from dataclasses import dataclass, fields
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


def _built(cls, timestamp: int, name: str, array: np.ndarray):
    """An instance of ``cls`` whose field ``name`` is an array a step has
    just computed: the array is frozen in place, with no copy and none of
    the public constructor's checks.  The caller checks whatever its
    computation does not guarantee."""
    obj = object.__new__(cls)
    array.setflags(write=False)
    vars(obj).update({name: array, "timestamp": timestamp})
    return obj


def _fields_equal(self, other):
    """Value equality over a dataclass's fields: arrays by shape and
    elements (``np.array_equal``, so -0.0 equals 0.0), everything else by
    ``==``.  A class body that sets ``__eq__`` to this leaves the class
    unhashable."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    )


def _square(n: int, m: int, what: str = "influence matrix") -> int:
    """The size of an n x m matrix, which must be square with n >= 2."""
    if n != m or n < 2:
        raise ShapeError(f"{what} must be square with size >= 2, got {n}x{m}")
    return n


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
        if not np.isfinite(self.values).all():
            raise DomainError("performance values must all be finite")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    __eq__ = _fields_equal


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
        _square(*self.entries.shape)
        if not np.isfinite(self.entries).all():
            raise DomainError("influence entries must all be finite")
        if (self.entries < 0.0).any():
            raise DomainError("influence entries must be non-negative")
        if not (self.entries.diagonal() == 1.0).all():
            raise DomainError("influence matrix diagonal must be exactly 1")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class UtilityMatrix:
    """Fixed utility weight factors; time-invariant by definition."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "utility entries", 2))
        _square(*self.entries.shape, "utility matrix")
        if not np.isfinite(self.entries).all():
            raise DomainError("utility entries must all be finite")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class PolicyIntervention:
    """Additive exogenous emphasis applied to performance before clipping;
    a scenario's policy schedule says at which step."""

    emphasis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "emphasis", _frozen_array(self.emphasis, "policy emphasis", 1))
        if not np.isfinite(self.emphasis).all():
            raise DomainError("policy emphasis must be finite")

    __eq__ = _fields_equal


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


BRANCH_FIELDS = tuple(f.name for f in fields(BranchCounts))


class StepResult(NamedTuple):
    performance: PerformanceVector
    influence: InfluenceMatrix
    branches: BranchCounts


def trace_rules(w: np.ndarray, r: np.ndarray):
    """The value rules of a trace over its (T, n) performance and (T, n, n)
    strength stacks, in the order they are checked.  Each rule is the stack
    it reads ("w" or "r"), the mask of the cells that break it, the rule
    for the whole trace, and the rule after one cell's value."""
    yield "w", ~np.isfinite(w), "performance values must all be finite", "is not a finite number"
    yield "r", ~np.isfinite(r), "influence entries must all be finite", "is not a finite number"
    off_one = np.eye(r.shape[-1], dtype=bool) & (r != 1.0)
    yield "r", off_one, "influence matrix diagonal must be exactly 1", "but the diagonal must be exactly 1"
    yield "r", r < 0.0, "influence entries must be non-negative", "is negative"


def branch_stack(counts) -> np.ndarray:
    """Per-step update counts (one_zero, equal, ratio, degenerate) as a
    64-bit integer array; a count beyond that range is a DomainError."""
    try:
        return np.asarray(counts, dtype=np.int64)
    except OverflowError:
        raise DomainError("branch counts must lie within the 64-bit integer range") from None


def branch_fault(branches: np.ndarray, n: int) -> str | None:
    """Why the first row of a (T, 4) ``branch_stack`` cannot be the counts
    of a step of n subsystems, naming it as ``steps[k]``, or None when
    every row can.  Each of the n(n-1) off-diagonal cells takes one branch
    and degenerate cells are ratio cells.  A row of zeros passes: it is a
    step whose counts were not kept, as in a table trace."""
    cells = n * (n - 1)
    one_zero, equal, ratio, degenerate = branches.T
    # an int64 sum can wrap around only when a count is already out of range
    bad = ((branches < 0) | (branches > cells)).any(axis=1) | (degenerate > ratio) | (one_zero + equal + ratio != cells)
    bad &= branches.any(axis=1)
    if not bad.any():
        return None
    k = int(bad.argmax())
    return (
        f"trace steps[{k}]: branch counts {dict(zip(BRANCH_FIELDS, branches[k].tolist()))} are not a step's: "
        f"each lies in 0..{cells}, degenerate <= ratio and one_zero + equal + ratio == {cells}"
    )


def stack_steps(timestamps, ws, rs) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-step timestamps, performance vectors and strength matrices
    (arrays or rectangular nested lists) as the (T, n) and (T, n, n) stacks
    of a trace and its first timestamp.  Timestamps must increase by 1,
    every matrix must be square with n >= 2, and every step of one size."""
    if not timestamps:
        raise InputError("a trace needs at least one step")
    for prev_t, t in zip(timestamps, timestamps[1:]):
        if t != prev_t + 1:
            raise SequencingError(f"trace timestamps must increase by 1, got {prev_t} then {t}")
    size = len(ws[0])
    for w, r in zip(ws, rs):
        n = _square(len(r), len(r[0]) if len(r) else 0)
        if n != size or len(w) != size:
            raise ShapeError("all trace steps must share one subsystem count")
    return np.array(ws, dtype=float), np.array(rs, dtype=float), timestamps[0]


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """Ordered per-step outputs of a simulation run, as stacked arrays.

    ``w`` (T, n) holds the performance vectors, ``r`` (T, n, n) the
    strength matrices and ``branches`` (T, 4) the update counts (one_zero,
    equal, ratio, degenerate) of the steps with timestamps ``start`` ..
    ``start + T - 1``.  The constructor keeps the arrays it is given,
    without a copy, makes them read-only and checks them once, with the
    rules of ``trace_rules`` and ``branch_fault``.
    """

    w: np.ndarray
    r: np.ndarray
    branches: np.ndarray
    start: int

    def __post_init__(self):
        w, r, branches = np.asarray(self.w, dtype=float), np.asarray(self.r, dtype=float), branch_stack(self.branches)
        if r.ndim != 3 or len(r) == 0:
            raise ShapeError(f"trace strengths must be a (T, n, n) stack with T >= 1, got shape {r.shape}")
        n = _square(*r.shape[1:])
        if w.shape != (r.shape[0], n) or branches.shape != (r.shape[0], len(BRANCH_FIELDS)):
            raise ShapeError("all trace steps must share one subsystem count")
        for _, mask, rule, _ in trace_rules(w, r):
            if mask.any():
                raise DomainError(rule)
        fault = branch_fault(branches, n)
        if fault is not None:
            raise DomainError(fault)
        for array in (w, r, branches):
            array.setflags(write=False)
        vars(self).update(w=w, r=r, branches=branches, start=int(self.start))

    @property
    def size(self) -> int:
        return self.w.shape[1]

    def __len__(self) -> int:
        return self.w.shape[0]

    __eq__ = _fields_equal


def compute_weights(influence: InfluenceMatrix, utility: UtilityMatrix) -> PerformanceVector:
    """Aggregate performance: for each subsystem i, the sum over j of
    strength(i, j) * utility(i, j).

    Returns the raw aggregate (no clipping); the timestamp is copied from
    the influence matrix.  An aggregate that overflows is a DomainError.
    """
    if influence.size != utility.size:
        raise ShapeError(
            f"influence is {influence.size}x{influence.size} but utility is "
            f"{utility.size}x{utility.size}"
        )
    weights = np.einsum("ij,ij->i", influence.entries, utility.entries)
    if not np.isfinite(weights).all():
        raise DomainError("performance values must all be finite")
    return _built(PerformanceVector, influence.timestamp, "values", weights)


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


def _update_kernel(deltas: np.ndarray, prior: np.ndarray, opts: ModelOptions) -> tuple[np.ndarray, BranchCounts]:
    """The whole-matrix update for a finite, non-negative ``prior``, run
    under ``np.errstate(all="ignore")``.  Division by zero, overflow and
    underflow are expected: the masks discard the cells outside the ratio
    branch, and ratio cells take the IEEE result, as the scalar rule does
    with Python floats.

    Each branch is a boolean mask over the whole matrix, and each kept
    value is the scalar rule's operation on the same operands, so every
    value and branch count is bit-for-bit the scalar rule's.  A diagonal
    cell keeps its prior and no entry is negative.  With ``opts.clamp``
    every ratio cell lies in [0, 1], so every entry is finite.  The caller
    checks that the deltas are finite."""
    n, eps = deltas.shape[0], opts.eps_delta
    d_i = deltas[:, None]
    zero = np.abs(deltas) <= eps
    zero_i = zero[:, None]
    one_zero = zero_i != zero
    # neither delta zero and the two more than eps_delta apart; a difference
    # of finite deltas is never NaN, so ">" negates the scalar rule's "<="
    ratio = (np.abs(d_i - deltas) > eps) > (zero_i | zero)
    denom = deltas * prior
    x = d_i / denom
    degenerate = ratio & ((denom == 0.0) | (x == 0.0))
    # |x| where x > 0; in every other kept cell x < 0, and -1 / x == 1 / |x|.
    # The value is never negative, so the clamp to [0, 1] is one minimum.
    value = -1.0 / x
    np.copyto(value, x, where=x > 0.0)
    if opts.clamp:
        np.minimum(value, 1.0, out=value)
    out = np.where(one_zero, 0.0, prior)
    np.copyto(out, value, where=ratio)
    np.copyto(out, 0.0, where=degenerate)
    # a finite delta never differs from itself, so the diagonal is in no mask
    one_zero_count, ratio_count = int(np.count_nonzero(one_zero)), int(np.count_nonzero(ratio))
    counts = BranchCounts(
        one_zero_count, n * (n - 1) - one_zero_count - ratio_count, ratio_count, int(np.count_nonzero(degenerate))
    )
    return out, counts


# The largest system whose strengths are updated cell by cell over Python
# floats.  Timed per call of the checked entry on a 2-core x86-64 machine,
# the whole-matrix numpy pass costs about 21 us at any n up to 12, nearly
# all of it the overhead of some 25 ufunc calls, while the cell loop grows
# from about 4 us at n = 2 to 20 us at n = 9 and 23 us at n = 10.
_CELLS_MAX_N = 9


def _update_cells(deltas: list[float], prior: np.ndarray, opts: ModelOptions) -> tuple[np.ndarray, BranchCounts]:
    """The update of ``_update_kernel`` over the finite Python-float
    ``deltas``, one cell at a time, for a small system.  Each value is the
    scalar rule's operation on the same operands, so every value and branch
    count is bit-for-bit the scalar rule's, and Python float arithmetic
    overflows to infinity without a warning.  The diagonal keeps its prior;
    an unclamped ratio can be infinite, as in ``_update_kernel``."""
    eps, clamp = opts.eps_delta, opts.clamp
    cells = [(j, d, abs(d) <= eps) for j, d in enumerate(deltas)]
    rows = prior.tolist()
    one_zero = ratio = degenerate = 0
    for row, (_, d_i, zero_i) in zip(rows, cells):
        for j, d_j, zero_j in cells:
            if zero_i or zero_j:
                if zero_i != zero_j:
                    row[j] = 0.0
                    one_zero += 1
            elif abs(d_i - d_j) > eps:  # never true on the diagonal
                ratio += 1
                denom = d_j * row[j]
                x = d_i / denom if denom else 0.0  # -0.0 is zero too
                if not x:
                    row[j] = 0.0
                    degenerate += 1
                else:
                    # -1 / x == 1 / |x| for x < 0, and is 0.0 for x = -inf
                    value = x if x > 0.0 else -1.0 / x
                    row[j] = 1.0 if clamp and value > 1.0 else value
    n = len(deltas)
    return np.array(rows), BranchCounts(one_zero, n * (n - 1) - one_zero - ratio, ratio, degenerate)


def _checked_update(
    w_prev: np.ndarray, w_curr: np.ndarray, prior: np.ndarray, opts: ModelOptions
) -> tuple[np.ndarray, BranchCounts]:
    """The one checked entry to the strength update: the strengths ``prior``
    (finite, non-negative, unit diagonal) advanced by the deltas between two
    performance vectors, and the per-branch cell counts.  The result keeps
    the unit diagonal and no entry is negative.

    A system of at most ``_CELLS_MAX_N`` subsystems is updated cell by cell
    over Python floats (``_update_cells``), a larger one by the
    whole-matrix numpy pass (``_update_kernel``).  Both give the scalar
    rule's values and counts bit for bit, and the same errors."""
    # an overflowing delta becomes infinite and is rejected as a DomainError
    if prior.shape[0] <= _CELLS_MAX_N:
        deltas = [c - p for c, p in zip(w_curr.tolist(), w_prev.tolist())]
        if not all(map(math.isfinite, deltas)):
            raise DomainError("relationship update requires finite deltas and strength")
        entries, counts = _update_cells(deltas, prior, opts)
    else:
        with np.errstate(all="ignore"):
            deltas = w_curr - w_prev
            if not np.isfinite(deltas).all():
                raise DomainError("relationship update requires finite deltas and strength")
            entries, counts = _update_kernel(deltas, prior, opts)
    # only an unclamped ratio can leave a non-finite entry
    if not (opts.clamp or np.isfinite(entries).all()):
        raise DomainError("influence entries must all be finite")
    return entries, counts


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
    entries, counts = _checked_update(w_prev.values, w_curr.values, r_curr.entries, opts)
    return _built(InfluenceMatrix, r_curr.timestamp + 1, "entries", entries), counts


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
    w_next = compute_weights(r_next, utility)
    values = w_next.values
    if policy is not None:
        if policy.emphasis.shape[0] != values.shape[0]:
            raise ShapeError(
                f"policy emphasis has size {policy.emphasis.shape[0]}, expected {values.shape[0]}"
            )
        values = values + policy.emphasis
    if opts.normalize_w:
        # clipping maps an overflowed sum to a bound, so values stay finite
        values = values.clip(0.0, 1.0)
    elif policy is not None and not np.isfinite(values).all():
        # compute_weights has checked the plain aggregate; only the sum can overflow
        raise DomainError("performance values must all be finite")
    return StepResult(_built(PerformanceVector, r_next.timestamp, "values", values), r_next, counts)


def simulate(scenario: "Scenario", horizon: int) -> SimulationTrace:
    """Run ``horizon`` steps from the scenario's seed state.

    Step s (1-based) consumes the policy scheduled under key s and emits
    the state at timestamp s + 1.  Identical scenarios always produce
    identical traces.
    """
    violations = scenario.validate(horizon)
    if violations:
        raise ValidationError(violations)
    utility = scenario.resolved_utility()
    opts = scenario.options
    w_prev, w_curr, r_curr = scenario.w0, scenario.w1, scenario.r1
    start = w_curr.timestamp + 1
    ws, rs, counts = [], [], []
    # A performance vector that overflows (a huge policy emphasis, say) is
    # rejected as a DomainError by the step's finiteness check, with no
    # numpy warning.
    with np.errstate(over="ignore"):
        for s in range(1, horizon + 1):
            policy = scenario.policy.get(s)
            w_next, r_next, c = step(w_prev, w_curr, r_curr, utility, policy, opts)
            ws.append(w_next.values)
            rs.append(r_next.entries)
            counts.append((c.one_zero, c.equal, c.ratio, c.degenerate))
            w_prev, w_curr, r_curr = w_curr, w_next, r_next
    return SimulationTrace(np.array(ws), np.array(rs), counts, start)
