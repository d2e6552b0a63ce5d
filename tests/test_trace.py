"""The array-backed trace against the step-by-step trace it replaces.

``simulate`` stacks each step's state into ``SimulationTrace.w``, ``r``
and ``branches``; the properties here rebuild the same run one ``step``
at a time, as ``StepResult`` objects, and require bit-for-bit equality.
A second property rebuilds the run from the specification alone: the
scalar ``update_relationship`` cell by cell and the public, fully checking
constructors, so a check that the step no longer makes shows up as a
missing exception.  The observation matrices are checked against the
per-step expressions they replace, and malformed traces must be refused
with the exception type and message they had when every step was an
object.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossimpact import (
    Branch,
    BranchCounts,
    CrossImpactError,
    DomainError,
    InfluenceMatrix,
    ModelOptions,
    ParseError,
    PerformanceVector,
    PolicyIntervention,
    Scenario,
    SequencingError,
    ShapeError,
    SimulationTrace,
    StepResult,
    SubsystemSet,
    UtilityMatrix,
    parse_trace,
    simulate,
    step,
    update_relationship,
    write_trace,
)
from crossimpact.analysis import OBSERVATION_DESIGNS, observation_matrix
from crossimpact.cli import main
from crossimpact.scenario_io import _may_hold_booleans
from conftest import random_trace, self_consistent_scenario, trace_of

unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 5))
    horizon = draw(st.integers(1, 12))
    r1 = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(r1, 1.0)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    policy_steps = draw(st.sets(st.integers(1, horizon), max_size=3))
    return Scenario(
        subsystems=SubsystemSet(tuple(f"s{k}" for k in range(n))),
        w0=PerformanceVector(draw(st.lists(unit, min_size=n, max_size=n)), 0),
        w1=PerformanceVector(draw(st.lists(unit, min_size=n, max_size=n)), 1),
        r1=InfluenceMatrix(r1, 1),
        utility=UtilityMatrix(u),
        policy={
            s: PolicyIntervention(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
            for s in policy_steps
        },
        options=ModelOptions(clamp=draw(st.booleans()), normalize_w=draw(st.booleans())),
        horizon=horizon,
    )


def stepwise(scenario: Scenario) -> list[StepResult]:
    """The run as the engine built it before traces were stacked: one
    ``StepResult`` per ``step`` call."""
    utility = scenario.resolved_utility()
    w_prev, w_curr, r_curr = scenario.w0, scenario.w1, scenario.r1
    steps = []
    with np.errstate(over="ignore"):
        for s in range(1, scenario.horizon + 1):
            steps.append(step(w_prev, w_curr, r_curr, utility, scenario.policy.get(s), scenario.options))
            w_prev, w_curr, r_curr = w_curr, steps[-1].performance, steps[-1].influence
    return steps


def outcome(run, *args):
    try:
        return run(*args)
    except CrossImpactError as e:
        return type(e), str(e)


class TestArrayTraceMatchesSteps:
    @given(scenario=scenarios())
    @settings(max_examples=150, deadline=None)
    def test_simulate_equals_the_stepwise_trace(self, scenario):
        trace = outcome(simulate, scenario)
        steps = outcome(stepwise, scenario)
        reference = steps if isinstance(steps, tuple) else outcome(trace_of, steps)
        if isinstance(reference, tuple):
            assert trace == reference
            return
        assert trace == reference
        assert trace.start == steps[0].performance.timestamp == 2
        timestamps = [trace.start + k for k in range(len(trace))]
        assert timestamps == [s.performance.timestamp for s in steps] == [s.influence.timestamp for s in steps]
        assert trace.w.tobytes() == np.array([s.performance.values for s in steps]).tobytes()
        assert trace.r.tobytes() == np.array([s.influence.entries for s in steps]).tobytes()
        assert trace.branches.tolist() == [list(s.branches) for s in steps]

    def test_stacks_are_read_only(self):
        trace = random_trace(np.random.default_rng(1), steps=3)
        for array in (trace.w, trace.r, trace.branches):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_constructors_agree(self):
        # the stacks and the step results they hold describe one run; the
        # constructor keeps the arrays it is given and makes them read-only
        trace = random_trace(np.random.default_rng(2), steps=4)
        w, r, branches = trace.w.copy(), trace.r.copy(), trace.branches.copy()
        again = SimulationTrace(w, r, branches, 2)
        assert again.w is w and again.r is r and again.branches is branches and not w.flags.writeable
        results = [
            StepResult(PerformanceVector(w[k], 2 + k), InfluenceMatrix(r[k], 2 + k), BranchCounts(*branches[k].tolist()))
            for k in range(len(again))
        ]
        assert again == trace and trace_of(results) == trace
        assert again != SimulationTrace(trace.w, trace.r, trace.branches, 3)

    def test_the_constructor_checks_the_stacks(self):
        trace = random_trace(np.random.default_rng(3), steps=3)
        r = trace.r.copy()
        r[2, 1, 0] = -0.5
        with pytest.raises(DomainError, match="influence entries must be non-negative"):
            SimulationTrace(trace.w, r, trace.branches, 2)
        with pytest.raises(ShapeError, match="share one subsystem count"):
            SimulationTrace(trace.w[:, :4], trace.r, trace.branches, 2)


# magnitudes from nothing to the binary64 limit, so that runs overflow
# partway through: a strength ratio, an aggregate or a policy sum
TINY_TO_HUGE = [0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e300, 1.7e308]


def build_scenario(n, w0, w1, r1, u, policy, clamp, normalize_w, eps_delta, horizon) -> Scenario:
    r1 = np.array(r1, dtype=float).reshape(n, n)
    np.fill_diagonal(r1, 1.0)
    return Scenario(
        subsystems=SubsystemSet(tuple(f"s{k}" for k in range(n))),
        w0=PerformanceVector(w0, 0),
        w1=PerformanceVector(w1, 1),
        r1=InfluenceMatrix(r1, 1),
        utility=UtilityMatrix(np.array(u, dtype=float).reshape(n, n)),
        policy={s: PolicyIntervention(e) for s, e in policy.items()},
        options=ModelOptions(clamp=clamp, eps_delta=eps_delta, normalize_w=normalize_w),
        horizon=horizon,
    )


@st.composite
def extreme_scenarios(draw):
    n = draw(st.integers(2, 4))
    horizon = draw(st.integers(1, 8))
    clamp, normalize_w = draw(st.booleans()), draw(st.booleans())
    magnitude = st.sampled_from(TINY_TO_HUGE)
    signed = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())
    perf = unit | st.sampled_from([0.0, 5e-324, 1e-300, 1.0]) if normalize_w else signed | st.floats(-1.0, 1.0)
    strength = unit | st.sampled_from([0.0, 5e-324, 1e-300]) if clamp else magnitude | unit
    policy_steps = draw(st.sets(st.integers(1, horizon), max_size=3))
    return build_scenario(
        n,
        draw(st.lists(perf, min_size=n, max_size=n)),
        draw(st.lists(perf, min_size=n, max_size=n)),
        draw(st.lists(strength, min_size=n * n, max_size=n * n)),
        draw(st.lists(signed | st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)),
        {s: draw(st.lists(signed | st.floats(-0.5, 0.5), min_size=n, max_size=n)) for s in policy_steps},
        clamp,
        normalize_w,
        draw(st.sampled_from([1e-300, 1e-12, 1e-9, 1e-3, 1.0, 1e300])),
        horizon,
    )


def specified(scenario: Scenario) -> SimulationTrace:
    """The run as the specification states it: ``update_relationship`` on
    every off-diagonal cell, the aggregate, emphasis and clipping of
    ``step``'s docstring, and the public constructors with all their
    copies and checks."""
    utility, opts = scenario.resolved_utility(), scenario.options
    w_prev, w_curr, r_curr = scenario.w0, scenario.w1, scenario.r1
    n, steps = scenario.size, []
    with np.errstate(all="ignore"):
        for s in range(1, scenario.horizon + 1):
            t = r_curr.timestamp + 1
            deltas = (w_curr.values - w_prev.values).tolist()
            entries = np.ones((n, n))
            branches = {Branch.ONE_ZERO: 0, Branch.EQUAL: 0, Branch.RATIO: 0}
            degenerate = 0
            for i in range(n):
                for j in range(n):
                    if i != j:
                        cell = update_relationship(deltas[i], deltas[j], float(r_curr.entries[i, j]), opts)
                        entries[i, j] = cell.value
                        branches[cell.branch] += 1
                        degenerate += cell.degenerate
            r_next = InfluenceMatrix(entries, t)
            values = PerformanceVector(np.einsum("ij,ij->i", r_next.entries, utility.entries), t).values
            if s in scenario.policy:
                values = values + scenario.policy[s].emphasis
            if opts.normalize_w:
                values = np.clip(values, 0.0, 1.0)
            counts = BranchCounts(branches[Branch.ONE_ZERO], branches[Branch.EQUAL], branches[Branch.RATIO], degenerate)
            steps.append(StepResult(PerformanceVector(values, t), r_next, counts))
            w_prev, w_curr, r_curr = w_curr, steps[-1].performance, r_next
    return trace_of(steps)


def first_steps(scenario: Scenario, horizon: int) -> Scenario:
    """The same scenario, run for its first ``horizon`` steps only."""
    policy = {s: p for s, p in scenario.policy.items() if s <= horizon}
    return Scenario(
        scenario.subsystems, scenario.w0, scenario.w1, scenario.r1, scenario.utility, policy, scenario.options, horizon
    )


# Runs whose first step succeeds and whose second fails, one per check the
# step keeps: an unclamped strength ratio, the aggregate, a policy sum
# without clipping, and a performance delta overflow.
PARTWAY_FAILURES = {
    "strength": (
        build_scenario(2, [0.5, 0.5], [0.5, 0.5], [1.0, 1e-308, 0.5, 1.0], [1.0, 0.0, 0.0, 0.75], {}, False, True, 1e-9, 4),
        "influence entries must all be finite",
    ),
    "aggregate": (
        build_scenario(
            2, [-2.0, -1e-300], [-0.5, 1e300], [1.0, 0.25, 0.25, 1.0], [-1.7e308, -1.7e308, -1.7e308, 0.0], {},
            True, False, 1e-9, 4,
        ),
        "performance values must all be finite",
    ),
    "policy-sum": (
        build_scenario(
            2, [0.5, 0.5], [0.5, 0.5], [1.0, 0.5, 0.5, 1.0], [1e308, 0.0, 0.0, 1e308], {2: [1.7e308, 1.7e308]},
            True, False, 1e-9, 4,
        ),
        "performance values must all be finite",
    ),
    "delta": (
        build_scenario(2, [0.0, 0.0], [1e308, 1e308], [1.0, 0.0, 0.0, 1.0], [-1e308, 0.0, 0.0, -1e308], {}, True, False, 1e-9, 4),
        "relationship update requires finite deltas and strength",
    ),
}


class TestLeanStepMatchesTheSpecification:
    @given(scenario=extreme_scenarios())
    @settings(max_examples=300, deadline=None)
    @example(scenario=PARTWAY_FAILURES["strength"][0])
    @example(scenario=PARTWAY_FAILURES["aggregate"][0])
    @example(scenario=PARTWAY_FAILURES["policy-sum"][0])
    @example(scenario=PARTWAY_FAILURES["delta"][0])
    # a clamped ratio that overflows: x = dw_i / (dw_j * 1e-308)
    @example(
        scenario=build_scenario(
            3, [0.5] * 3, [0.7, 0.6, 0.45], [1.0, 1e-308, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5, 1.0], [1 / 3] * 9, {},
            True, True, 1e-9, 5,
        )
    )
    def test_simulate_equals_the_specified_run(self, scenario):
        trace = outcome(simulate, scenario)
        reference = outcome(specified, scenario)
        if isinstance(reference, tuple):
            assert trace == reference
            return
        for layout in ("table", "structured"):
            assert write_trace(trace, layout) == write_trace(reference, layout)
        assert trace.branches.tolist() == reference.branches.tolist()

    @pytest.mark.parametrize("name", sorted(PARTWAY_FAILURES))
    def test_partway_failures_keep_their_messages(self, name):
        scenario, message = PARTWAY_FAILURES[name]
        assert simulate(first_steps(scenario, 1)) == specified(first_steps(scenario, 1))
        for run in (lambda: simulate(scenario), lambda: specified(scenario)):
            with pytest.raises(DomainError) as raised:
                run()
            assert str(raised.value) == message

    def test_step_outputs_are_frozen_and_checked_once(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility)
        w_next, r_next, _ = step(scenario.w0, scenario.w1, scenario.r1, uniform_utility, None, scenario.options)
        for array in (w_next.values, r_next.entries):
            assert not array.flags.writeable
        assert w_next == PerformanceVector(w_next.values, 2) and r_next == InfluenceMatrix(r_next.entries, 2)


def oracle_observations(trace: SimulationTrace, design: str) -> np.ndarray:
    """``observation_matrix`` computed one strength matrix at a time."""
    if design == "column-sums":
        return np.array([r.sum(axis=0) for r in trace.r])
    return np.array([r.ravel() for r in trace.r])


@pytest.mark.parametrize("design", OBSERVATION_DESIGNS)
@pytest.mark.parametrize("n", [2, 5, 25, 100])
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e3, 1e-3]))
@settings(max_examples=10, deadline=None)
def test_observation_matrix_matches_the_per_step_oracle(design, n, seed, scale):
    rng = np.random.default_rng(seed)
    base = random_trace(rng, steps=6, n=n)
    r = base.r * scale * rng.uniform(0.0, 1.0, size=base.r.shape)
    r[:, np.arange(n), np.arange(n)] = 1.0
    trace = SimulationTrace(base.w, r, base.branches, base.start)
    # the table reader's stacks are views of its CSV body, so check those too
    for candidate in (trace, parse_trace(write_trace(trace, "table")), parse_trace(write_trace(trace, "structured"))):
        got, want = observation_matrix(candidate, design), oracle_observations(candidate, design)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Malformed traces: the same exception and message as the step-object reader
# ---------------------------------------------------------------------------

HEADER = "t,W1,W2,R11,R12,R21,R22\n"
ROW = "2,0.5,0.4,1,0.5,0.25,1\n"

MALFORMED_TABLES = {
    "nan": (HEADER + ROW + "3,0.5,nan,1,0.5,0.5,1\n", "line 3: W2 = nan is not a finite number"),
    "1e400": (HEADER + "2,0.5,0.4,1,0.5,0.5,1e400\n", "line 2: R22 = inf is not a finite number"),
    "diagonal": (HEADER + ROW + "3,0.5,0.4,1,0.5,0.5,0.9\n", "line 3: R22 = 0.9 but the diagonal must be exactly 1"),
    "negative-diagonal": (HEADER + "2,0.5,0.4,-1,0.5,0.5,1\n", "line 2: R11 = -1 but the diagonal must be exactly 1"),
    "negative": (HEADER + "2,0.5,0.4,1,-0.5,0.5,1\n", "line 2: R12 = -0.5 is negative"),
    "gap": (HEADER + ROW + "4,0.5,0.4,1,0.5,0.5,1\n", "line 3: t = 4 does not follow the previous t by 1"),
    "backwards": (HEADER + ROW + "1,0.5,0.4,1,0.5,0.5,1\n", "line 3: t = 1 does not follow the previous t by 1"),
    "non-numeric": (HEADER + "2,0.5,0.4,1,0.5,0.5,x\n", "line 2: non-numeric cell 'x' in column R22"),
    "header": ("t,W1,W2,R11\n2,0.5,0.4,1\n", "line 1: trace header 't,W1,W2,R11' is not t,W1,W2,R11,R12,R21,R22"),
    "one-subsystem": ("t,W1,R11\n2,0.5,1\n", "line 1: trace header 't,W1,R11' is not t,W1,W2,R11,R12,R21,R22"),
    "short-row": (HEADER + "2,0.5,0.4,1,0.5,0.5\n", "line 2: expected 7 cells, got 6"),
    "no-rows": (HEADER, "line 1: trace has a header but no data rows"),
    "t-decimal": (HEADER + "2.0,0.5,0.4,1,0.5,0.5,1\n", "line 2: non-integer cell '2.0' in column t"),
}


def structured(change) -> str:
    doc = {
        "kind": "trace",
        "size": 2,
        "steps": [
            {
                "t": 2 + k,
                "w": [0.5, 0.4],
                "r": [[1.0, 0.5], [0.25, 1.0]],
                "branches": {"one_zero": 0, "equal": 2, "ratio": 0, "degenerate": 0},
            }
            for k in range(3)
        ],
    }
    change(doc)
    return json.dumps(doc)


def put(*path, value):
    """A change to a trace document that sets the cell at ``path``."""

    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return change


LARGER = {"w": [0.5, 0.4, 0.3], "r": [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]}
MISSING = "trace steps[1]: missing or malformed field KeyError"
SQUARE = "influence matrix must be square with size >= 2, got"

MALFORMED_DOCUMENTS = {
    "no-w": (lambda d: d["steps"][1].pop("w"), ParseError, f"{MISSING}('w')"),
    "no-r": (lambda d: d["steps"][1].pop("r"), ParseError, f"{MISSING}('r')"),
    "no-t": (lambda d: d["steps"][1].pop("t"), ParseError, f"{MISSING}('t')"),
    "steps-str": (put("steps", value="oops"), ParseError, "trace 'steps' must be a list"),
    "steps-ints": (put("steps", value=[1, 2]), ParseError, "trace steps[0] must be an object"),
    "no-steps": (put("steps", value=[]), ParseError, "trace document has no steps"),
    "branches-list": (put("steps", 0, "branches", value=[]), ParseError, "trace steps[0]: 'branches' must be an object"),
    "t-fraction": (put("steps", 1, "t", value=2.9), ParseError, "trace steps[1]: 't' must be an integer, got 2.9"),
    "count-fraction": (
        put("steps", 1, "branches", "ratio", value=2.7),
        ParseError,
        "trace steps[1]: branch count 'ratio' must be an integer, got 2.7",
    ),
    "w-nan": (put("steps", 1, "w", 0, value=float("nan")), DomainError, "performance values must all be finite"),
    "r-inf": (put("steps", 2, "r", 0, 1, value=float("inf")), DomainError, "influence entries must all be finite"),
    "r-negative": (put("steps", 1, "r", 1, 0, value=-0.25), DomainError, "influence entries must be non-negative"),
    "r-diagonal": (put("steps", 1, "r", 1, 1, value=0.5), DomainError, "influence matrix diagonal must be exactly 1"),
    "r-not-square": (put("steps", 1, "r", value=[[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]]), ShapeError, f"{SQUARE} 2x3"),
    "one-subsystem": (lambda d: [s.update(w=[0.5], r=[[1.0]]) for s in d["steps"]], ShapeError, f"{SQUARE} 1x1"),
    "w-longer": (put("steps", 1, "w", value=[0.5, 0.4, 0.3]), ShapeError, "all trace steps must share one subsystem count"),
    "step-larger": (lambda d: d["steps"][1].update(LARGER), ShapeError, "all trace steps must share one subsystem count"),
    "gap": (put("steps", 2, "t", value=5), SequencingError, "trace timestamps must increase by 1, got 3 then 5"),
    "size-wrong": (put("size", value=3), ParseError, "trace 'size' is 3, but its steps have 2 subsystems"),
    "size-missing": (lambda d: d.pop("size"), ParseError, "trace 'size' must be an integer, got None"),
}


class TestMalformedTraces:
    @pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
    def test_table_faults_keep_their_messages(self, name, tmp_path, capsys):
        text, message = MALFORMED_TABLES[name]
        with pytest.raises(ParseError) as raised:
            parse_trace(text)
        assert str(raised.value) == message
        self._exits_one(text, message, tmp_path, capsys)

    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_document_faults_keep_their_messages(self, name, tmp_path, capsys):
        change, kind, message = MALFORMED_DOCUMENTS[name]
        text = structured(change)
        with pytest.raises(CrossImpactError) as raised:
            parse_trace(text)
        assert type(raised.value) is kind and str(raised.value) == message
        self._exits_one(text, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "change, message",
        [
            (put("steps", 1, "w", 0, value="0.5"), "trace steps[1]: w[0] must be a number, got '0.5'"),
            (put("steps", 1, "w", 1, value=True), "trace steps[1]: w[1] must be a number, got True"),
            (put("steps", 1, "r", 0, 1, value="0.5"), "trace steps[1]: r[0][1] must be a number, got '0.5'"),
            (put("steps", 2, "r", 1, 0, value=False), "trace steps[2]: r[1][0] must be a number, got False"),
            (put("steps", 1, "r", 0, 1, value=None), "trace steps[1]: r[0][1] must be a number, got None"),
            (put("steps", 0, "w", value="0.5"), "trace steps[0]: w must be an array of numbers"),
            (put("steps", 1, "r", value=[1.0, 0.5]), "trace steps[1]: r must be an array of arrays of numbers"),
            (put("steps", 1, "r", 0, value=[1.0, 0.5, 0.5]), "trace steps[1]: r must be rectangular: its rows differ"),
        ],
        ids=["w-string", "w-true", "r-string", "r-false", "r-null", "w-not-array", "r-flat", "r-ragged"],
    )
    def test_cells_must_be_json_numbers(self, change, message, tmp_path, capsys):
        text = structured(change)
        with pytest.raises(ParseError) as raised:
            parse_trace(text)
        assert str(raised.value).startswith(message)
        self._exits_one(text, message, tmp_path, capsys)

    @given(
        cells=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 2),
                st.floats(0.0, 1.0) | st.sampled_from([0, 1, 2**70, True, False, None, "0.5", "", [0.5], {}]),
            ),
            min_size=1,
            max_size=3,
        ),
        extra=st.sampled_from([None, "", "true", "false", "u", "fu"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_numbers_are_read_in_bulk_as_cell_by_cell(self, cells, extra):
        # w and off-diagonal r cells take numbers or non-numbers; an extra
        # key's text may look like a boolean literal to the bulk check
        def change(doc):
            if extra is not None:
                doc["note"] = extra
            for k, cell, value in cells:
                if cell < 2:
                    doc["steps"][k]["w"][cell] = value
                else:
                    doc["steps"][k]["r"][0][1] = value

        text = structured(change)
        doc = json.loads(text)
        bad = [
            k
            for k, step_doc in enumerate(doc["steps"])
            for value in [*step_doc["w"], *step_doc["r"][0], *step_doc["r"][1]]
            if not isinstance(value, (int, float)) or isinstance(value, bool)
        ]
        if bad:
            with pytest.raises(ParseError, match=rf"^trace steps\[{min(bad)}\]: "):
                parse_trace(text)
            return
        trace = parse_trace(text)
        assert trace.w.tolist() == [[float(v) for v in step["w"]] for step in doc["steps"]]
        assert trace.r.tolist() == [[[float(v) for v in row] for row in step["r"]] for step in doc["steps"]]

    def test_branch_counts_must_fit_64_bits(self, tmp_path, capsys):
        text = structured(put("steps", 1, "branches", "ratio", value=2**70))
        with pytest.raises(DomainError, match="64-bit"):
            parse_trace(text)
        self._exits_one(text, "branch counts must lie within the 64-bit integer range", tmp_path, capsys)

    def test_a_written_trace_needs_no_cell_by_cell_check(self):
        text = write_trace(random_trace(np.random.default_rng(4), steps=3), "structured")
        assert not _may_hold_booleans(text)
        for literal in ("true", "false"):
            assert _may_hold_booleans(text.replace('"equal"', f'"note": {literal}, "equal"', 1))

    @staticmethod
    def _exits_one(text, message, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
