"""Core dynamics: aggregation, the strength-update branches, stepping."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossimpact import (
    Branch,
    BranchCounts,
    DomainError,
    InfluenceMatrix,
    InputError,
    ModelOptions,
    PerformanceVector,
    PolicyIntervention,
    Scenario,
    SequencingError,
    SeriesTable,
    ShapeError,
    SimulationTrace,
    SubsystemSet,
    UtilityMatrix,
    ValidationError,
    compute_weights,
    simulate,
    step,
    update_matrix,
    update_relationship,
    write_trace,
)
import crossimpact.model
from crossimpact.cli import main
from crossimpact.model import _CELLS_MAX_N, _checked_update, _update_cells, _update_kernel, stack_steps
from conftest import EXAMPLE_STRENGTHS, random_influence, self_consistent_scenario

UNCLAMPED = ModelOptions(clamp=False)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class TestTypes:
    def test_default_subsystems(self):
        assert SubsystemSet().size == 5

    @pytest.mark.parametrize(
        "names",
        [("only-one",), ("a", "a", "b"), ("a", "", "b")],
    )
    def test_bad_subsystem_sets(self, names):
        with pytest.raises(ValidationError):
            SubsystemSet(names)

    def test_matrix_rejects_bad_entries(self):
        negative = np.eye(3)
        negative[0, 1] = -0.5
        with pytest.raises(DomainError):
            InfluenceMatrix(negative)
        bad_diag = np.eye(3)
        bad_diag[1, 1] = 0.9
        with pytest.raises(DomainError):
            InfluenceMatrix(bad_diag)
        nonfinite = np.eye(3)
        nonfinite[0, 1] = np.inf
        with pytest.raises(DomainError):
            InfluenceMatrix(nonfinite)
        nonfinite[0, 1] = np.nan
        with pytest.raises(DomainError):
            InfluenceMatrix(nonfinite)
        with pytest.raises(ShapeError):
            InfluenceMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: PerformanceVector([[0.5, 0.4]]), ShapeError,
             "performance values must be 1-dimensional, got shape (1, 2)"),
            (lambda: UtilityMatrix([[0.5, np.nan], [0.0, 1.0]]), DomainError, "utility entries must all be finite"),
            (lambda: PolicyIntervention([np.nan, 0.1]), DomainError, "policy emphasis must be finite"),
            (lambda: stack_steps([], [], []), InputError, "a trace needs at least one step"),
            (lambda: SimulationTrace(np.full((1, 2), 0.5), np.eye(2), np.zeros((1, 4)), 2), ShapeError,
             "trace strengths must be a (T, n, n) stack with T >= 1, got shape (2, 2)"),
            (lambda: SimulationTrace(np.zeros((0, 2)), np.zeros((0, 2, 2)), np.zeros((0, 4)), 2), ShapeError,
             "trace strengths must be a (T, n, n) stack with T >= 1, got shape (0, 2, 2)"),
            (
                lambda: step(
                    PerformanceVector([0.5] * 5, 0), PerformanceVector([0.5] * 5, 1), InfluenceMatrix(EXAMPLE_STRENGTHS, 1),
                    UtilityMatrix(np.full((5, 5), 0.2)), PolicyIntervention([0.1, 0.0, 0.0]),
                ),
                ShapeError, "policy emphasis has size 3, expected 5",
            ),
        ],
        ids=["vector-2d", "utility-nan", "policy-nan", "no-steps", "trace-2d", "trace-empty", "policy-length"],
    )
    def test_each_fault_has_its_type_and_message(self, build, error, message):
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message

    def test_vector_rejects_nan(self):
        with pytest.raises(DomainError):
            PerformanceVector([0.1, float("nan")])

    def test_options_require_positive_eps(self):
        with pytest.raises(DomainError):
            ModelOptions(eps_delta=0.0)

    def test_matrix_is_immutable(self, example_matrix):
        with pytest.raises(ValueError):
            example_matrix.entries[0, 1] = 0.5


# ---------------------------------------------------------------------------
# Equality: every field compared, arrays by shape and value
# ---------------------------------------------------------------------------

_SCENARIO = {
    "subsystems": SubsystemSet(("a", "b")),
    "w0": PerformanceVector([0.5, 0.0], 0),
    "w1": PerformanceVector([0.5, 0.5], 1),
    "r1": InfluenceMatrix([[1.0, 0.5], [0.25, 1.0]], 1),
    "utility": UtilityMatrix([[0.5, -0.5], [0.0, 1.0]]),
    "policy": {1: PolicyIntervention([0.1, 0.0])},
    "options": ModelOptions(),
    "horizon": 3,
}

# per value type: its constructor, the fields of one instance (lists, so
# every instance gets arrays of its own), the same fields each changed in
# turn, and a change of a 0.0 to -0.0, which numpy compares equal
VALUE_TYPES = {
    "PerformanceVector": (
        PerformanceVector,
        {"values": [0.5, 0.25, 0.0], "timestamp": 3},
        {"values": [0.5, 0.25, 1.0], "timestamp": 4},
        {"values": [0.5, 0.25, -0.0]},
    ),
    "InfluenceMatrix": (
        InfluenceMatrix,
        {"entries": [[1.0, 0.5], [0.0, 1.0]], "timestamp": 1},
        {"entries": [[1.0, 0.5], [0.25, 1.0]], "timestamp": 2},
        {"entries": [[1.0, 0.5], [-0.0, 1.0]]},
    ),
    "UtilityMatrix": (
        UtilityMatrix,
        {"entries": [[0.5, -0.5], [0.0, 1.0]]},
        {"entries": [[0.5, -0.5], [0.5, 1.0]]},
        {"entries": [[0.5, -0.5], [-0.0, 1.0]]},
    ),
    "PolicyIntervention": (
        PolicyIntervention,
        {"emphasis": [0.1, 0.0]},
        {"emphasis": [0.1, 0.2]},
        {"emphasis": [0.1, -0.0]},
    ),
    "SimulationTrace": (
        SimulationTrace,
        {
            "w": [[0.5, 0.25], [0.0, 1.0]],
            "r": [[[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.75], [0.25, 1.0]]],
            "branches": [[0, 2, 0, 0], [1, 1, 0, 0]],
            "start": 2,
        },
        {
            "w": [[0.5, 0.25], [0.5, 1.0]],
            "r": [[[1.0, 0.5], [0.5, 1.0]], [[1.0, 0.75], [0.25, 1.0]]],
            "branches": [[0, 2, 0, 0], [0, 0, 2, 1]],
            "start": 3,
        },
        {"w": [[0.5, 0.25], [-0.0, 1.0]], "r": [[[1.0, 0.5], [-0.0, 1.0]], [[1.0, 0.75], [0.25, 1.0]]]},
    ),
    "SeriesTable": (
        SeriesTable,
        {"timestamps": (0, 1), "values": [[0.5, 0.25], [0.0, 1.0]], "ihdi": [0.5, 0.75]},
        {"timestamps": (0, 2), "values": [[0.5, 0.25], [0.5, 1.0]], "ihdi": [0.5, 1.0]},
        {"values": [[0.5, 0.25], [-0.0, 1.0]]},
    ),
    "Scenario": (
        Scenario,
        _SCENARIO,
        {
            "subsystems": SubsystemSet(("a", "c")),
            "w0": PerformanceVector([0.5, 0.25], 0),
            "w1": PerformanceVector([0.5, 0.5], 2),
            "r1": InfluenceMatrix([[1.0, 0.5], [0.5, 1.0]], 1),
            "utility": None,
            "policy": {},
            "options": ModelOptions(clamp=False),
            "horizon": 4,
        },
        {"w0": PerformanceVector([0.5, -0.0], 0)},
    ),
}


def _value(name: str, **changes):
    build, fields_, _, _ = VALUE_TYPES[name]
    return build(**{**fields_, **changes})


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
class TestEqualityContract:
    def test_equal_copies_compare_equal(self, name):
        a, b = _value(name), _value(name)
        assert a == b and b == a
        assert not (a != b)

    def test_each_field_changed_compares_unequal(self, name):
        _, fields_, changed, _ = VALUE_TYPES[name]
        assert set(changed) == set(fields_)
        for field, value in changed.items():
            a, b = _value(name), _value(name, **{field: value})
            assert a != b and b != a, field
            assert not (a == b) and not (b == a), field

    def test_another_type_is_not_implemented(self, name):
        value = _value(name)
        assert value.__eq__(object()) is NotImplemented
        assert value != object() and not (value == object())

    def test_instances_are_unhashable(self, name):
        with pytest.raises(TypeError):
            hash(_value(name))

    def test_negative_zero_equals_zero(self, name):
        _, _, _, negative_zero = VALUE_TYPES[name]
        assert _value(name, **negative_zero) == _value(name)


def test_a_series_with_ihdi_differs_from_one_without():
    with_ihdi, without = _value("SeriesTable"), _value("SeriesTable", ihdi=None)
    assert with_ihdi != without and without != with_ihdi
    assert not (with_ihdi == without) and not (without == with_ihdi)
    assert without == _value("SeriesTable", ihdi=None)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class TestComputeWeights:
    def test_example_row(self, example_matrix, uniform_utility):
        # hand evaluation of row 1: 0.2 * (1 + 0.9 + 0.1 + 0.3 + 0.2)
        w = compute_weights(example_matrix, uniform_utility)
        assert w.values[0] == pytest.approx(0.5, abs=1e-12)
        assert w.timestamp == example_matrix.timestamp

    def test_zero_utility(self, example_matrix):
        w = compute_weights(example_matrix, UtilityMatrix(np.zeros((5, 5))))
        assert np.array_equal(w.values, np.zeros(5))

    def test_identity_pair(self):
        w = compute_weights(InfluenceMatrix(np.eye(5)), UtilityMatrix(np.eye(5)))
        assert np.array_equal(w.values, np.ones(5))

    def test_shape_mismatch(self, example_matrix):
        with pytest.raises(ShapeError):
            compute_weights(example_matrix, UtilityMatrix(np.eye(3)))

    @given(seed=st.integers(0, 10**6), alpha=st.floats(-8.0, 8.0, allow_nan=False))
    def test_linearity_in_utility(self, seed, alpha):
        rng = np.random.default_rng(seed)
        r = random_influence(rng)
        u = rng.uniform(-1.0, 1.0, size=(5, 5))
        lhs = compute_weights(r, UtilityMatrix(alpha * u)).values
        rhs = alpha * compute_weights(r, UtilityMatrix(u)).values
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Relationship update
# ---------------------------------------------------------------------------

class TestUpdateRelationship:
    def test_one_zero_drops_to_zero(self):
        upd = update_relationship(0.1, 0.0, 0.5)
        assert upd.value == 0.0 and upd.branch is Branch.ONE_ZERO

    def test_equal_deltas_keep_prior(self):
        upd = update_relationship(0.05, 0.05, 0.7)
        assert upd.value == 0.7 and upd.branch is Branch.EQUAL

    def test_ratio_positive_exponent(self):
        assert update_relationship(0.2, 0.1, 0.5, UNCLAMPED).value == pytest.approx(4.0, rel=1e-12)
        assert update_relationship(0.2, 0.1, 0.5).value == 1.0  # clamped

    def test_ratio_negative_exponent(self):
        upd = update_relationship(-0.2, 0.1, 0.5, UNCLAMPED)
        assert upd.value == pytest.approx(0.25, rel=1e-12)
        assert upd.branch is Branch.RATIO

    def test_both_zero_keeps_prior(self):
        assert update_relationship(0.0, 0.0, 0.3).value == 0.3

    def test_zero_prior_in_ratio_is_absorbing(self):
        upd = update_relationship(0.2, 0.1, 0.0)
        assert upd.value == 0.0 and upd.branch is Branch.RATIO and upd.degenerate

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            update_relationship(bad, 0.1, 0.5)
        with pytest.raises(DomainError):
            update_relationship(0.1, 0.1, bad)

    def test_negative_prior_rejected(self):
        with pytest.raises(DomainError):
            update_relationship(0.1, 0.2, -0.5)

    @given(
        dw_i=st.floats(-1e6, 1e6, allow_nan=False),
        dw_j=st.floats(-1e6, 1e6, allow_nan=False),
        r=st.floats(0.0, 1e3, allow_nan=False),
    )
    @example(dw_i=1e-9, dw_j=0.5, r=0.3)
    @example(dw_i=-1e-9, dw_j=0.5, r=0.3)
    @example(dw_i=1e-9, dw_j=1e-9, r=0.3)
    @example(dw_i=1e-9, dw_j=-1e-9, r=0.3)
    @example(dw_i=0.0, dw_j=0.0, r=0.0)
    def test_branch_totality_and_bounds(self, dw_i, dw_j, r):
        upd = update_relationship(dw_i, dw_j, r)
        # independent predicate walk: the three cases partition the space
        eps = 1e-9
        zi, zj = abs(dw_i) <= eps, abs(dw_j) <= eps
        p_one = zi != zj
        p_keep = (zi and zj) or (not zi and not zj and abs(dw_i - dw_j) <= eps)
        p_ratio = not zi and not zj and abs(dw_i - dw_j) > eps
        assert [p_one, p_keep, p_ratio].count(True) == 1
        expected = Branch.ONE_ZERO if p_one else Branch.EQUAL if p_keep else Branch.RATIO
        assert upd.branch is expected
        assert upd.value >= 0.0
        if upd.branch is not Branch.EQUAL:
            assert upd.value <= 1.0  # clamped mode; EQUAL may keep r > 1

    @given(
        dw_i=st.floats(-1e3, 1e3, allow_nan=False),
        dw_j=st.floats(-1e3, 1e3, allow_nan=False),
        r=st.floats(0.0, 10.0, allow_nan=False),
    )
    def test_sign_symmetry(self, dw_i, dw_j, r):
        a = update_relationship(dw_i, dw_j, r, UNCLAMPED)
        b = update_relationship(-dw_i, -dw_j, r, UNCLAMPED)
        assert a.branch is b.branch
        if a.branch is Branch.RATIO:
            assert a.value == b.value

    @given(
        d=st.floats(-1e3, -1e-6).map(abs),
        offset=st.floats(-1e-9, 1e-9),
        r=st.floats(0.0, 5.0, allow_nan=False),
    )
    @example(d=1.0, offset=9.999999999999999e-10, r=0.0)
    def test_near_equal_deltas_fixed_point(self, d, offset, r):
        # d + offset rounds, so the realised gap can exceed the drawn offset
        dw_j = d + offset
        assume(abs(d - dw_j) <= 1e-9)
        upd = update_relationship(d, dw_j, r)
        assert upd.branch is Branch.EQUAL
        assert upd.value == r  # exactly


# ---------------------------------------------------------------------------
# Matrix update
# ---------------------------------------------------------------------------

def _vec(values, t):
    return PerformanceVector(values, t)


class TestUpdateMatrix:
    def test_zero_deltas_fixed_point(self, example_matrix):
        w = _vec([0.5, 0.38, 0.42, 0.34, 0.5], 0)
        out, counts = update_matrix(w, _vec(w.values, 1), example_matrix)
        assert np.array_equal(out.entries, example_matrix.entries)
        assert out.timestamp == 2
        assert counts.equal == 20 and counts.one_zero == 0 and counts.ratio == 0

    def test_single_delta_zeroes_row_and_column(self, example_matrix):
        w_prev = _vec([0.5, 0.38, 0.42, 0.34, 0.5], 0)
        bumped = np.array(w_prev.values)
        bumped[0] += 0.1
        out, counts = update_matrix(_vec(w_prev.values, 0), _vec(bumped, 1), example_matrix)
        assert np.all(out.entries[0, 1:] == 0.0)  # row 1 off-diagonals
        assert np.all(out.entries[1:, 0] == 0.0)  # column 1 off-diagonals
        # the rest keep their prior values (both deltas zero)
        assert np.array_equal(out.entries[1:, 1:], example_matrix.entries[1:, 1:])
        assert counts.one_zero == 8 and counts.equal == 12

    def test_uniform_delta_sweep_keeps_matrix(self, example_matrix):
        w_prev = _vec([0.5, 0.38, 0.42, 0.34, 0.5], 0)
        w_curr = _vec(w_prev.values + 0.02, 1)
        out, counts = update_matrix(w_prev, w_curr, example_matrix)
        assert np.array_equal(out.entries, example_matrix.entries)
        assert counts.equal == 20

    def test_timestamp_mismatch(self, example_matrix):
        w0 = _vec(np.full(5, 0.4), 0)
        w2 = _vec(np.full(5, 0.4), 2)
        with pytest.raises(SequencingError):
            update_matrix(w0, w2, example_matrix)

    def test_size_mismatch(self, example_matrix):
        with pytest.raises(ShapeError):
            update_matrix(_vec([0.4, 0.4], 0), _vec([0.4, 0.4], 1), example_matrix)

    def test_diagonal_always_pinned(self, example_matrix):
        rng = np.random.default_rng(7)
        w_prev = _vec(rng.uniform(0, 1, 5), 0)
        w_curr = _vec(rng.uniform(0, 1, 5), 1)
        out, _ = update_matrix(w_prev, w_curr, example_matrix)
        assert np.all(np.diagonal(out.entries) == 1.0)


def _scalar_entries(deltas, prior, opts):
    """The per-cell reference: ``update_relationship`` on every
    off-diagonal cell, in row-major order, with the diagonal left at 1."""
    n = prior.shape[0]
    out = np.ones((n, n))
    counts = {Branch.ONE_ZERO: 0, Branch.EQUAL: 0, Branch.RATIO: 0}
    degenerate = 0
    with np.errstate(all="ignore"):  # numpy scalars warn where Python floats do not
        for i in range(n):
            for j in range(n):
                if i != j:
                    upd = update_relationship(deltas[i], deltas[j], prior[i, j], opts)
                    out[i, j] = upd.value
                    counts[upd.branch] += 1
                    degenerate += upd.degenerate
    return out, BranchCounts(
        counts[Branch.ONE_ZERO], counts[Branch.EQUAL], counts[Branch.RATIO], degenerate
    )


def _assert_kernel_matches_scalar_rule(deltas, prior, opts):
    """Both update paths, called directly at any size, and the checked
    entry, whichever path it selects, against the per-cell reference."""
    deltas = np.asarray(deltas, dtype=float)
    prior = np.array(prior, dtype=float)
    np.fill_diagonal(prior, 1.0)  # the checked entry takes a strength matrix
    want, want_counts = _scalar_entries(deltas, prior, opts)
    with np.errstate(all="ignore"):  # as the checked entry runs the kernel
        by_matrix = _update_kernel(deltas, prior, opts)
    by_cell = _update_cells(deltas.tolist(), prior, opts)
    for got, got_counts in (by_matrix, by_cell):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got_counts == want_counts
    w_prev = np.zeros_like(deltas)  # so w_curr - w_prev is each delta, -0.0 included
    if not np.isfinite(want).all():  # an unclamped ratio that overflows
        with pytest.raises(DomainError, match="influence entries must all be finite"):
            _checked_update(w_prev, deltas, prior, opts)
        return
    got, got_counts = _checked_update(w_prev, deltas, prior, opts)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_counts == want_counts


def _spy(monkeypatch, name, replacement=None):
    """Replace ``crossimpact.model.<name>`` with ``replacement`` (default:
    the function itself) and return the list its calls are appended to."""
    calls = []
    replacement = replacement or getattr(crossimpact.model, name)

    def spy(*args):
        calls.append(args)
        return replacement(*args)

    monkeypatch.setattr(f"crossimpact.model.{name}", spy)
    return calls


_DELTA_FAULT = "relationship update requires finite deltas and strength"


# the path the checked entry takes for a system of n subsystems
def _path_at(n):
    return "_update_cells" if n <= _CELLS_MAX_N else "_update_kernel"


# priors at and next to the edges: zeros of both signs, subnormals, tiny
# normals whose products with a delta underflow, and strengths above 1
_EDGE_PRIORS = [0.0, -0.0, 5e-324, 1e-308, 2.2250738585072014e-308, 1e-300, 1.0, 1e3]


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(2, 8))
    eps = draw(st.floats(1e-12, 1e-2))
    opts = ModelOptions(clamp=draw(st.booleans()), eps_delta=eps)
    value = st.one_of(
        st.just(0.0),
        st.floats(-eps, eps),  # counts as zero
        st.floats(-1e3, 1e3),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    values = draw(st.lists(value, min_size=n, max_size=n))
    # repeat values, then nudge some within +-eps: exact and near ties
    picks = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    nudges = draw(st.lists(st.one_of(st.just(0.0), st.floats(-eps, eps)), min_size=n, max_size=n))
    deltas = np.array([values[p] + nudge for p, nudge in zip(picks, nudges)])
    assume(np.all(np.isfinite(deltas)))
    prior_cell = st.one_of(st.sampled_from(_EDGE_PRIORS), st.floats(0.0, 1.0))
    prior = np.array(draw(st.lists(prior_cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(prior, 1.0)
    return deltas, prior, opts


class TestUpdateKernel:
    """``_checked_update`` applies the scalar rule to a whole matrix, cell by
    cell up to ``_CELLS_MAX_N`` subsystems and in one numpy pass above; the
    per-cell ``update_relationship`` is the reference of both, bit for bit."""

    @given(case=_kernel_cases())
    @settings(max_examples=300, deadline=None)
    @example(case=([0.0, 0.0], [[1.0, 0.3], [0.7, 1.0]], ModelOptions()))  # both zero
    @example(case=([0.0, 0.2], [[1.0, 0.3], [0.7, 1.0]], ModelOptions()))  # one zero
    @example(case=([5e-10, -5e-10], [[1.0, 0.3], [0.7, 1.0]], ModelOptions()))  # sub-eps
    @example(case=([0.2, 0.2 + 5e-10, -0.3], [[1.0, 0.4, 0.5]] * 3, ModelOptions()))  # near tie
    @example(case=([0.2, -0.1], [[1.0, 0.0], [-0.0, 1.0]], ModelOptions()))  # zero priors
    @example(case=([0.2, 0.1], [[1.0, 1e-308], [5e-324, 1.0]], ModelOptions()))  # x overflows
    @example(case=([0.2, -0.1], [[1.0, 1e-308], [5e-324, 1.0]], ModelOptions(clamp=False)))
    @example(case=([1e-8, 1e300], [[1.0, 1e9], [0.5, 1.0]], ModelOptions()))  # denom overflows
    @example(case=([0.5, 0.5 + 2**-20, 2**-20], [[1.0, 0.4, 0.5]] * 3, ModelOptions(True, 2**-20)))
    @example(case=([1.7e308, -1.7e308], [[1.0, 0.5], [0.5, 1.0]], ModelOptions()))  # gap overflows
    @example(case=([0.3, -0.3, 1e-2], [[1.0, 2.0, 0.5]] * 3, ModelOptions(False, 1e-2)))
    def test_matches_scalar_rule(self, case):
        _assert_kernel_matches_scalar_rule(*case)

    def test_matches_scalar_rule_at_n_100(self):
        rng = np.random.default_rng(100)
        deltas = rng.normal(0.0, 0.05, 100)
        deltas[rng.choice(100, 15, replace=False)] = 0.0
        deltas[rng.choice(100, 15, replace=False)] = 4e-10
        deltas[rng.choice(100, 10, replace=False)] = deltas[0]
        prior = rng.uniform(0.0, 1.0, (100, 100))
        prior[rng.random((100, 100)) < 0.1] = 0.0
        prior[rng.random((100, 100)) < 0.02] = 1e-308
        np.fill_diagonal(prior, 1.0)
        for opts in (ModelOptions(), UNCLAMPED):
            _assert_kernel_matches_scalar_rule(deltas, prior, opts)

    @pytest.mark.parametrize(
        "deltas, prior",
        [
            ([np.nan, 0.1], [[1.0, 0.5], [0.5, 1.0]]),
            ([0.1, np.inf], [[1.0, 0.5], [0.5, 1.0]]),
        ],
        ids=["nan-delta", "inf-delta"],
    )
    def test_domain_errors(self, deltas, prior):
        with pytest.raises(DomainError, match="finite deltas"):
            _checked_update(np.zeros(2), np.array(deltas), np.array(prior), ModelOptions())

    def test_overflowing_delta_is_a_domain_error(self):
        big = ModelOptions(normalize_w=False)
        w_prev = _vec([1.7e308, -1.7e308, 0.5], 0)
        w_curr = _vec([-1.7e308, 1.7e308, 0.5], 1)
        r = InfluenceMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3), 1)
        with pytest.raises(DomainError):
            update_matrix(w_prev, w_curr, r, big)

    @pytest.mark.parametrize("n", [_CELLS_MAX_N, _CELLS_MAX_N + 1])
    def test_checked_update_at_the_size_boundary(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        deltas = rng.normal(0.0, 0.05, n)
        deltas[[1, 2]] = 0.0, 4e-10
        deltas[3] = deltas[0]
        prior = rng.uniform(0.0, 1.0, (n, n))
        prior[0, 4], prior[4, 0], prior[5, 6], prior[6, 5] = 0.0, -0.0, 1e-308, 5e-324
        for opts in (ModelOptions(), UNCLAMPED):
            with monkeypatch.context() as patched:
                calls = _spy(patched, _path_at(n))
                _assert_kernel_matches_scalar_rule(deltas, prior, opts)
            assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, _CELLS_MAX_N, _CELLS_MAX_N + 1, 12])
    @pytest.mark.parametrize(
        "w_prev, w_curr, prior_01, opts, message",
        [
            ([0.5, 0.5], [np.nan, 0.5], 0.5, ModelOptions(), _DELTA_FAULT),
            ([0.5, 0.5], [0.5, np.inf], 0.5, ModelOptions(), _DELTA_FAULT),
            ([1.7e308, -1.7e308], [-1.7e308, 1.7e308], 0.5, ModelOptions(), _DELTA_FAULT),
            ([0.5, 0.5], [0.7, 0.6], 1e-308, UNCLAMPED, "influence entries must all be finite"),
        ],
        ids=["nan-delta", "inf-delta", "overflowing-delta", "unclamped-overflowing-ratio"],
    )
    def test_error_contract_on_both_paths(self, n, w_prev, w_curr, prior_01, opts, message):
        # the fault sits in the first two subsystems; the others stay put
        w_prev = np.array(w_prev + [0.25] * (n - 2))
        w_curr = np.array(w_curr + [0.25] * (n - 2))
        prior = np.full((n, n), 0.5)
        prior[0, 1] = prior_01
        np.fill_diagonal(prior, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would fail the test
            with pytest.raises(DomainError) as caught:
                _checked_update(w_prev, w_curr, prior, opts)
        assert type(caught.value) is DomainError
        assert str(caught.value) == message

    def test_overflowing_ratio_leaks_no_warning(self, tmp_path, capsys, monkeypatch):
        # x = dw_i / (dw_j * 1e-308) overflows in the first step, on a system
        # below the size that selects the numpy pass and on one above it
        for n in (3, _CELLS_MAX_N + 1):
            w1 = [0.7, 0.6, 0.45] + [0.2 + 0.05 * k for k in range(n - 3)]
            r1 = np.full((n, n), 0.5)
            r1[0, 1] = 1e-308
            np.fill_diagonal(r1, 1.0)
            doc = {"subsystems": [f"s{k}" for k in range(n)], "w0": [0.5] * n, "w1": w1, "r1": r1.tolist()}
            path = tmp_path / f"scenario{n}.json"
            path.write_text(json.dumps(doc))
            args = ["simulate", "--scenario", str(path), "--format", "structured"]
            assert main(args) == 0
            out = capsys.readouterr()
            assert "Warning" not in out.err
            # the same trace as a run through the per-cell reference, in
            # place of the path the checked entry takes at this size
            with monkeypatch.context() as patched:
                calls = _spy(patched, _path_at(n), _scalar_entries)
                assert main(args) == 0
            assert calls and capsys.readouterr().out == out.out


# ---------------------------------------------------------------------------
# Step and simulate
# ---------------------------------------------------------------------------

class TestStep:
    def test_quiescent_step(self, example_matrix, uniform_utility):
        w = compute_weights(example_matrix, uniform_utility)
        res = step(_vec(w.values, 0), _vec(w.values, 1), example_matrix, uniform_utility)
        assert res.influence == InfluenceMatrix(example_matrix.entries, 2)
        assert np.array_equal(res.performance.values, w.values)
        assert res.performance.timestamp == 2

    def test_additive_policy_pre_clip(self, example_matrix, uniform_utility):
        w = compute_weights(example_matrix, uniform_utility)
        emphasis = np.array([0.1, 0.0, 0.0, 0.0, 0.0])
        plain = step(_vec(w.values, 0), _vec(w.values, 1), example_matrix, uniform_utility)
        boosted = step(
            _vec(w.values, 0),
            _vec(w.values, 1),
            example_matrix,
            uniform_utility,
            PolicyIntervention(emphasis),
        )
        assert np.array_equal(boosted.performance.values, plain.performance.values + emphasis)

    def test_solved_utility_reproduces_performance(self, example_matrix):
        # weights solved so the seed performance is reproduced: a zero-delta
        # step returns the same performance up to the solver's residual bound
        from crossimpact import solve_utility_min_norm

        target = _vec([0.5, 0.38, 0.42, 0.34, 0.5], 1)
        utility, _ = solve_utility_min_norm(example_matrix, target)
        res = step(_vec(target.values, 0), target, example_matrix, utility)
        assert np.max(np.abs(res.performance.values - target.values)) <= 1e-9

    def test_normalization_clips(self, example_matrix):
        heavy = UtilityMatrix(np.full((5, 5), 0.9))
        w = _vec(np.full(5, 0.5), 0)
        res = step(w, _vec(w.values, 1), example_matrix, heavy)
        assert np.all(res.performance.values <= 1.0)
        raw = step(w, _vec(w.values, 1), example_matrix, heavy, opts=ModelOptions(normalize_w=False))
        assert raw.performance.values.max() > 1.0


class TestSimulate:
    def test_horizon_one_is_one_step(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility, horizon=1)
        trace = simulate(scenario)
        manual = step(scenario.w0, scenario.w1, scenario.r1, uniform_utility)
        assert len(trace) == 1
        assert _vec(trace.w[0], trace.start) == manual.performance
        assert InfluenceMatrix(trace.r[0], trace.start) == manual.influence

    def test_quiescent_constant_trace(self, example_matrix, uniform_utility):
        trace = simulate(self_consistent_scenario(example_matrix, uniform_utility, horizon=100))
        for w, r in zip(trace.w, trace.r):
            assert np.array_equal(w, trace.w[0])
            assert np.array_equal(r, example_matrix.entries)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_quiescent_fixed_point_property(self, seed):
        rng = np.random.default_rng(seed)
        r = random_influence(rng)
        utility = UtilityMatrix(rng.uniform(0.0, 0.2, size=(5, 5)))
        trace = simulate(self_consistent_scenario(r, utility, horizon=20))
        for w_k, r_k in zip(trace.w, trace.r):
            assert np.array_equal(w_k, trace.w[0])
            assert np.array_equal(r_k, r.entries)

    def test_determinism_byte_identical(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility, horizon=25)
        a = write_trace(simulate(scenario), "structured")
        b = write_trace(simulate(scenario), "structured")
        assert a == b

    def test_trace_invariants(self, uniform_utility):
        rng = np.random.default_rng(11)
        scenario = Scenario(
            subsystems=SubsystemSet(),
            w0=_vec(rng.uniform(0, 1, 5), 0),
            w1=_vec(rng.uniform(0, 1, 5), 1),
            r1=random_influence(rng),
            utility=uniform_utility,
            horizon=40,
        )
        trace = simulate(scenario)
        timestamps = [trace.start + k for k in range(len(trace))]
        assert timestamps == list(range(2, 42))
        for w, r, branches in zip(trace.w, trace.r, trace.branches):
            assert np.all(np.diagonal(r) == 1.0)
            assert BranchCounts(*branches.tolist()).total() == 20
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_invalid_scenario_collects_all_violations(self, example_matrix, uniform_utility):
        scenario = Scenario(
            subsystems=SubsystemSet(),
            w0=_vec([1.5, 0.2, 0.2, 0.2, 0.2], 0),  # out of range
            w1=_vec([0.2] * 5, 5),                   # wrong timestamp
            r1=example_matrix,
            utility=uniform_utility,
        )
        with pytest.raises(ValidationError) as err:
            simulate(scenario)
        assert len(err.value.violations) >= 2

    def test_bad_horizon(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility, horizon=0)
        with pytest.raises(ValidationError) as err:
            simulate(scenario)
        assert "horizon must be >= 1, got 0" in err.value.violations

    def test_policy_schedule_applies_at_its_step(self, example_matrix, uniform_utility):
        base = self_consistent_scenario(example_matrix, uniform_utility, horizon=5)
        emphasis = np.array([0.05, 0.0, 0.0, 0.0, 0.0])
        scenario = Scenario(
            subsystems=base.subsystems,
            w0=base.w0,
            w1=base.w1,
            r1=base.r1,
            utility=base.utility,
            policy={3: PolicyIntervention(emphasis)},
            horizon=5,
        )
        trace = simulate(scenario)
        quiet = simulate(base)
        assert np.array_equal(trace.w[0], quiet.w[0])
        assert np.array_equal(trace.w[1], quiet.w[1])
        assert np.array_equal(trace.w[2], quiet.w[2] + emphasis)
        assert trace.start == quiet.start
