"""Parsing, validation aggregation and lossless round trips."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossimpact import (
    CalibrationReport,
    DomainError,
    InfluenceMatrix,
    InfluenceRanking,
    ModelOptions,
    ParseError,
    PerformanceVector,
    PolicyIntervention,
    QualityPoint,
    Scenario,
    ShapeError,
    SimulationTrace,
    SubsystemSet,
    UtilityMatrix,
    ValidationError,
    parse_matrix,
    parse_qc_table,
    parse_ranking,
    parse_scenario,
    parse_series,
    parse_trace,
    parse_tune_result,
    simulate,
    write_matrix,
    write_qc_table,
    write_ranking,
    write_scenario,
    write_series,
    write_trace,
    write_tune_result,
)
from crossimpact import SeriesTable, influence_ranking
from crossimpact.cli import main
from crossimpact.scenario_io import _csv, _dumps
from conftest import EXAMPLE_STRENGTHS, random_influence, random_trace, self_consistent_scenario


def minimal_doc() -> dict:
    return {
        "w0": [0.5, 0.4, 0.4, 0.3, 0.5],
        "w1": [0.5, 0.4, 0.4, 0.3, 0.5],
        "r1": EXAMPLE_STRENGTHS,
    }


class TestParseScenario:
    def test_minimal_document_gets_defaults(self):
        scenario = parse_scenario(json.dumps(minimal_doc()))
        assert scenario.subsystems == SubsystemSet()
        assert scenario.utility is None  # calibrate directive
        assert scenario.options == ModelOptions()
        assert scenario.horizon == 10
        assert scenario.policy == {}
        assert scenario.w0.timestamp == 0 and scenario.w1.timestamp == 1

    def test_out_of_range_strength_names_cell(self):
        doc = minimal_doc()
        doc["r1"] = [list(row) for row in EXAMPLE_STRENGTHS]
        doc["r1"][0][2] = 1.3
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert any("r1[0][2]" in v for v in err.value.violations)

    def test_missing_seed_vector_cites_two_snapshot_requirement(self):
        doc = minimal_doc()
        del doc["w0"]
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert any("two consecutive performance snapshots" in v for v in err.value.violations)

    def test_violations_are_aggregated(self):
        doc = minimal_doc()
        doc["w0"] = [2.0, 0.4, 0.4, 0.3, 0.5]   # out of range
        doc["horizon"] = 0                        # bad horizon
        doc["r1"] = [list(row) for row in EXAMPLE_STRENGTHS]
        doc["r1"][1][1] = 0.5                     # broken diagonal
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert len(err.value.violations) >= 3

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_scenario('{"w0": [0.5,,]}')
        assert "line 1" in str(err.value)

    def test_unclamped_strengths_allowed_when_requested(self):
        doc = minimal_doc()
        doc["r1"] = [list(row) for row in EXAMPLE_STRENGTHS]
        doc["r1"][0][2] = 1.3
        doc["options"] = {"clamp": False}
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.r1.entries[0, 2] == 1.3

    def test_explicit_utility_matrix(self):
        doc = minimal_doc()
        doc["u"] = [[0.2] * 5] * 5
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.utility == UtilityMatrix(np.full((5, 5), 0.2))

    def test_policy_schedule_parsed(self):
        doc = minimal_doc()
        doc["horizon"] = 6
        doc["policy"] = {"3": [0.1, 0, 0, 0, 0]}
        scenario = parse_scenario(json.dumps(doc))
        assert 3 in scenario.policy
        assert scenario.policy[3] == PolicyIntervention([0.1, 0, 0, 0, 0])

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(w0=[0.5, 0.4, 0.4, 0.3]), "length 4"),
            (lambda d: d.update(w0=[0.5, 0.4, "x", 0.3, 0.5]), "finite number"),
            (lambda d: d.update(subsystems=["a", "a", "b"]), "unique"),
            (lambda d: d.update(r1=[[1.0, 0.5], [0.5, 1.0]]), "5x5"),
            (lambda d: d.update(u=[[0.2] * 5] * 4), "5x5"),
            (lambda d: d.update(u="auto"), "calibrate"),
            (lambda d: d.update(policy={"abc": [0, 0, 0, 0, 0]}), "not an integer"),
            (lambda d: d.update(policy={"99": [0, 0, 0, 0, 0]}), "outside the horizon"),
            (lambda d: d.update(policy={"2": [0, 0]}), "policy step 2"),
            (lambda d: d.update(options={"eps_delta": -1.0}), "eps_delta"),
            (lambda d: d.update(options={"clamp": "yes"}), "boolean"),
            (lambda d: d.update(options={"plot": True}), "unknown options key"),
            (lambda d: d.update(horizon=0), "horizon"),
            (lambda d: d.update(extra=1), "unknown key"),
            (lambda d: d.update(u=[[0.2] * 4] * 5), "u has shape 5x4"),
            (lambda d: d.update(policy={"0": [0, 0, 0, 0, 0]}), "policy step 0 outside"),
            # int() reads each of these keys as a step number
            (lambda d: d.update(policy={"1_0": [0, 0, 0, 0, 0]}), "'1_0' is not"),
            (lambda d: d.update(policy={" 2": [0, 0, 0, 0, 0]}), "' 2' is not"),
            (lambda d: d.update(policy={"+1": [0, 0, 0, 0, 0]}), "'+1' is not"),
            (lambda d: d.update(policy={"\u0661": [0, 0, 0, 0, 0]}), "'\u0661' is not"),
        ],
    )
    def test_every_violation_is_named(self, mutate, fragment):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert any(fragment in v for v in err.value.violations), err.value.violations

    @pytest.mark.parametrize(
        "row, violation",
        [
            ("[0.1, NaN, 0, 0, 0]", "policy step 2 emphasis[1] must be a finite number, got nan"),
            ("[0.1, 0, Infinity, 0, 0]", "policy step 2 emphasis[2] must be a finite number, got inf"),
            ("[0.1, 0, 0, 0, -1e400]", "policy step 2 emphasis[4] must be a finite number, got -inf"),
            ("[0.1, 0, 0, true, 0]", "policy step 2 emphasis[3] must be a finite number, got True"),
            ("[0.1, 0, 0, 0]", "policy step 2 emphasis has length 4, expected 5"),
        ],
        ids=["nan", "inf", "1e400", "true", "short"],
    )
    def test_a_bad_policy_row_is_named_by_its_step(self, row, violation):
        rows = {str(s): "[0.1, 0, 0, 0, 0]" for s in range(1, 6)}
        rows["2"] = row
        text = json.dumps(minimal_doc() | {"horizon": 5, "policy": {}}).replace(
            '"policy": {}', '"policy": {' + ", ".join(f'"{s}": {r}' for s, r in rows.items()) + "}"
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.violations == [violation]
        scenario = parse_scenario(text.replace(row, "[0.1, 0, 0, 0, 0.5]"))
        assert scenario.policy[2] == PolicyIntervention([0.1, 0, 0, 0, 0.5])
        assert not scenario.policy[2].emphasis.flags.writeable

    def test_duplicate_policy_steps_rejected(self):
        doc = minimal_doc()
        doc["policy"] = {"1": [0.1, 0, 0, 0, 0], "01": [0.2, 0, 0, 0, 0]}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert any("policy step 1 " in v and "twice" in v for v in err.value.violations)

    def test_parser_and_validate_share_the_rules(self, example_matrix, uniform_utility):
        # a typed scenario that breaks only semantic rules: validate and the
        # parser must report the same violations in the same words
        base = self_consistent_scenario(example_matrix, uniform_utility, horizon=3)
        scenario = Scenario(
            subsystems=base.subsystems,
            w0=PerformanceVector([1.5, 0.2, 0.2, 0.2, -0.1], 0),
            w1=base.w1,
            r1=InfluenceMatrix(np.where(example_matrix.entries == 0.9, 1.25, example_matrix.entries), 1),
            utility=base.utility,
            policy={4: PolicyIntervention(np.zeros(5))},
            horizon=3,
        )
        violations = scenario.validate()
        assert violations == [
            "w0[0] = 1.5 outside [0, 1]",
            "w0[4] = -0.1 outside [0, 1]",
            "r1[0][1] = 1.25 outside [0, 1]",
            "policy step 4 outside the horizon 1..3",
        ]
        with pytest.raises(ValidationError) as err:
            parse_scenario(write_scenario(scenario))
        assert err.value.violations == violations

    def test_validate_names_a_seed_matrix_at_another_step(self, example_matrix, uniform_utility):
        base = self_consistent_scenario(example_matrix, uniform_utility)
        scenario = replace(base, r1=InfluenceMatrix(example_matrix.entries, 2))
        assert scenario.validate() == ["r1 must carry timestamp 1, got 2"]

    def test_broken_diagonal_reported_with_other_violations(self):
        doc = minimal_doc()
        doc["r1"] = [list(row) for row in EXAMPLE_STRENGTHS]
        doc["r1"][2][2] = 0.5
        doc["r1"][3][0] = -0.25
        doc["w1"] = [0.5, 0.4, 1.5, 0.3, 0.5]
        doc["policy"] = {"11": [0, 0, 0, 0, 0]}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert set(err.value.violations) == {
            "w1[2] = 1.5 outside [0, 1]",
            "r1[2][2] = 0.5 but the diagonal must be exactly 1",
            "r1[3][0] = -0.25 is negative",
            "policy step 11 outside the horizon 1..10",
        }

    def test_a_negative_diagonal_cell_breaks_one_rule_everywhere(self):
        # the matrix, the trace and the scenario read one strength-rule table
        entries = [[-1.0, 0.5, 0.0], [0.25, 1.0, 0.75], [0.0, 0.5, 1.0]]
        with pytest.raises(DomainError) as raised:
            InfluenceMatrix(entries, 1)
        assert str(raised.value) == "influence matrix diagonal must be exactly 1"
        with pytest.raises(DomainError) as raised:
            SimulationTrace(np.full((1, 3), 0.5), np.array([entries]), np.zeros((1, 4), dtype=np.int64), 2)
        assert str(raised.value) == "influence matrix diagonal must be exactly 1"
        doc = {"subsystems": ["a", "b", "c"], "w0": [0.5, 0.4, 0.3], "w1": [0.5, 0.4, 0.3], "r1": entries}
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.violations == ["r1[0][0] = -1.0 but the diagonal must be exactly 1"]

    def test_nan_rejected(self):
        text = '{"w0": [NaN, 0.4, 0.4, 0.3, 0.5], "w1": [0.5, 0.4, 0.4, 0.3, 0.5], "r1": %s}' % (
            json.dumps(EXAMPLE_STRENGTHS)
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert any("w0[0]" in v for v in err.value.violations)

    def test_round_trip(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility, horizon=7)
        assert parse_scenario(write_scenario(scenario)) == scenario

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 20))
        policy = {}
        for step_key in rng.choice(np.arange(1, horizon + 1), size=min(3, horizon), replace=False):
            policy[int(step_key)] = PolicyIntervention(rng.uniform(-0.1, 0.1, 5))
        scenario = Scenario(
            subsystems=SubsystemSet(),
            w0=PerformanceVector(rng.uniform(0, 1, 5), 0),
            w1=PerformanceVector(rng.uniform(0, 1, 5), 1),
            r1=random_influence(rng),
            utility=UtilityMatrix(rng.uniform(-0.3, 0.3, (5, 5))) if rng.random() < 0.5 else None,
            policy=policy,
            options=ModelOptions(
                clamp=bool(rng.random() < 0.8),
                eps_delta=float(10.0 ** rng.uniform(-12, -6)),
                normalize_w=bool(rng.random() < 0.8),
            ),
            horizon=horizon,
        )
        assert parse_scenario(write_scenario(scenario)) == scenario


class TestParseSeries:
    GOOD = "t,S1,S2,S3,S4,S5,IHDI\n0,0.5,0.4,0.3,0.2,0.1,0.8\n1,0.5,0.4,0.3,0.2,0.1,0.8\n2,0.6,0.4,0.3,0.2,0.1,0.9\n"

    def test_valid_table(self):
        table = parse_series(self.GOOD)
        assert len(table) == 3
        assert table.size == 5
        assert table.ihdi is not None and table.ihdi[2] == 0.9

    def test_duplicate_timestamp(self):
        text = "t,S1,S2\n0,0.5,0.4\n0,0.5,0.4\n"
        with pytest.raises(ParseError) as err:
            parse_series(text)
        assert "non-monotone" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_series("0,0.5,0.4\n1,0.5,0.4\n")
        assert "header" in str(err.value)

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError) as err:
            parse_series("t,S1,S2\n0,0.5,oops\n")
        assert "non-numeric" in str(err.value) and "S2" in str(err.value)

    def test_ihdi_column_optional(self):
        table = parse_series("t,S1,S2\n0,0.5,0.4\n1,0.5,0.4\n")
        assert table.ihdi is None

    def test_range_enforced_in_normalized_mode(self):
        text = "t,S1,S2\n0,1.5,0.4\n"
        with pytest.raises(ParseError):
            parse_series(text)
        # the table type itself does not require [0, 1]
        assert SeriesTable([0], [[1.5, 0.4]]).values[0, 0] == 1.5

    def test_ihdi_range(self):
        with pytest.raises(ParseError):
            parse_series("t,S1,S2,IHDI\n0,0.5,0.4,1.5\n")
        with pytest.raises(ParseError):
            parse_series("t,S1,S2,IHDI\n0,0.5,0.4,0\n")

    def test_round_trip(self):
        table = parse_series(self.GOOD)
        assert parse_series(write_series(table)) == table
        bare = parse_series("t,S1,S2\n0,0.125,0.25\n3,0.375,0.5\n")
        assert parse_series(write_series(bare)) == bare

    @pytest.mark.parametrize(
        "timestamps, values, ihdi, kind, message",
        [
            ((0, 1), [[0.5, np.nan], [0.5, 0.4]], None, ParseError, "series values must all be finite"),
            ((0, 1), [[0.5, 0.4], [-np.inf, 0.4]], None, ParseError, "series values must all be finite"),
            ((0, 3, 3), [[0.5, 0.4]] * 3, None, ParseError, "series timestamps must be strictly increasing, got 3 then 3"),
            ((5, 2), [[0.5, 0.4]] * 2, None, ParseError, "series timestamps must be strictly increasing, got 5 then 2"),
            ((0, 10**30, 1), [[0.5, 0.4]] * 3, None, ParseError,
             f"series timestamps must be strictly increasing, got {10**30} then 1"),
            ((0, 1), [[0.5, 0.4]] * 2, [0.5, 0.0], ParseError, "IHDI values must lie in (0, 1]"),
            ((0, 1), [[0.5, 0.4]] * 2, [1.5, 0.5], ParseError, "IHDI values must lie in (0, 1]"),
            ((0, 1), [[0.5, 0.4]] * 2, [0.5, np.nan], ParseError, "IHDI values must lie in (0, 1]"),
            ((0, 1), [[0.5, 0.4]] * 2, [0.5, np.inf], ParseError, "IHDI values must lie in (0, 1]"),
            ((0, 1), [[0.5, 0.4]] * 2, [0.5], ShapeError, "series needs one IHDI value per row when the column is present"),
            # the IHDI column must be 1-D: a scalar, a (T, 1) and a (T, 2) column
            ((0,), [[0.5, 0.5]], 0.5, ShapeError, "series needs one IHDI value per row when the column is present"),
            ((0, 1), [[0.5, 0.4]] * 2, [[0.5]] * 2, ShapeError, "series needs one IHDI value per row when the column is present"),
            ((0, 1), [[0.5, 0.4]] * 2, [[0.5, 0.5]] * 2, ShapeError, "series needs one IHDI value per row when the column is present"),
            ((0,), [[0.5, 0.4]] * 2, None, ShapeError, "series needs one timestamp per row"),
            ((0, 1), [0.5, 0.4], None, ShapeError, "series values must be 2-dimensional, got shape (2,)"),
        ],
        ids=["nan", "-inf", "repeated-t", "backwards-t", "huge-t", "ihdi-0", "ihdi-1.5", "ihdi-nan", "ihdi-inf",
             "ihdi-short", "ihdi-scalar", "ihdi-column", "ihdi-two-wide", "t-short", "values-1d"],
    )
    def test_series_table_rules(self, timestamps, values, ihdi, kind, message):
        with pytest.raises(kind) as raised:
            SeriesTable(timestamps, values, ihdi)
        assert type(raised.value) is kind and str(raised.value) == message

    @pytest.mark.parametrize("ihdi", [None, [0.5, 1.0, 5e-324]])
    def test_series_table_accepts_the_edges(self, ihdi):
        table = SeriesTable((-(2**70), 0, 2**70), [[0.0, 1.0], [2.0, -1.0], [5e-324, 1e308]], ihdi)
        assert table.timestamps == (-(2**70), 0, 2**70) and len(table) == 3
        assert SeriesTable((), np.zeros((0, 2))).size == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,S1,S2\n0,0.5,0.4\n2,0.5,0.4\n1,0.5,0.4\n", "line 4: t = 1 is non-monotone: timestamps must strictly increase"),
            ("t,S1,S2,IHDI\n0,0.5,0.4,0.5\n1,0.5,0.4,0\n", "line 3: IHDI = 0 is outside (0, 1]"),
            ("t,S1,S2,IHDI\n0,0.5,1.25,0.5\n1,0.5,0.4,0\n", "line 2: S2 = 1.25 is outside [0, 1]"),
            ("t,S1,S2\n0,0.5,0.4\n0,1.5,0.4\n", "line 3: t = 0 is non-monotone: timestamps must strictly increase"),
        ],
        ids=["t", "ihdi", "range-before-ihdi", "t-before-range"],
    )
    def test_series_rules_name_the_line(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_series(text)
        assert str(raised.value) == message

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 12))
        timestamps = np.cumsum(rng.integers(1, 4, size=rows))
        table = SeriesTable(
            tuple(int(t) for t in timestamps),
            rng.uniform(0, 1, size=(rows, 5)),
            rng.uniform(0.1, 1.0, size=rows) if rng.random() < 0.5 else None,
        )
        assert parse_series(write_series(table)) == table


class TestTraceRoundTrip:
    def test_structured_round_trip_includes_diagnostics(self):
        trace = random_trace(np.random.default_rng(1), steps=6)
        assert parse_trace(write_trace(trace, "structured")) == trace

    def test_table_round_trip_carries_state(self):
        trace = random_trace(np.random.default_rng(2), steps=6)
        back = parse_trace(write_trace(trace, "table"))
        assert len(back) == len(trace)
        assert back.start == trace.start
        for k in range(len(trace)):
            assert np.array_equal(back.w[k], trace.w[k])
            assert np.array_equal(back.r[k], trace.r[k])

    def test_single_step_table_has_one_row(self):
        trace = random_trace(np.random.default_rng(3), steps=1)
        text = write_trace(trace, "table")
        assert len(text.strip().splitlines()) == 2  # header + one data row

    def test_simulated_diagnostics_cover_all_cells(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility, horizon=5)
        doc = json.loads(write_trace(simulate(scenario), "structured"))
        for step_doc in doc["steps"]:
            b = step_doc["branches"]
            assert b["one_zero"] + b["equal"] + b["ratio"] == 20

    def test_unknown_format_rejected(self):
        trace = random_trace(np.random.default_rng(4), steps=2)
        with pytest.raises(Exception):
            write_trace(trace, "xml")

    def test_malformed_table_header(self):
        with pytest.raises(ParseError):
            parse_trace("t,W1,W2,R11\n2,0.5,0.4,1\n")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["steps"][0].pop("w"),
            lambda doc: doc.update(steps="oops"),
            lambda doc: doc.update(steps=[1, 2]),
            lambda doc: doc["steps"][0].update(branches=[]),
            lambda doc: doc["steps"][0].update(t="a"),
            lambda doc: doc["steps"][0].update(w=["x", 0.2]),
        ],
        ids=["no-w", "steps-str", "steps-ints", "branches-list", "t-str", "w-str"],
    )
    def test_malformed_structured_trace(self, mutate, tmp_path, capsys):
        doc = json.loads(write_trace(random_trace(np.random.default_rng(8), steps=3), "structured"))
        mutate(doc)
        text = json.dumps(doc)
        with pytest.raises(ParseError):
            parse_trace(text)
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["steps"][0].update(t=2.9),
            lambda doc: doc["steps"][0].update(t=True),
            lambda doc: doc["steps"][0].update(t="2"),
            lambda doc: doc["steps"][1]["branches"].update(ratio=2.7),
            lambda doc: doc["steps"][1]["branches"].update(equal=True),
            lambda doc: doc["steps"][1]["branches"].update(degenerate=None),
        ],
        ids=["t-fraction", "t-bool", "t-str-digits", "count-fraction", "count-bool", "count-null"],
    )
    def test_non_integral_fields_rejected(self, mutate, tmp_path, capsys):
        doc = json.loads(write_trace(random_trace(np.random.default_rng(9), steps=3), "structured"))
        mutate(doc)
        text = json.dumps(doc)
        with pytest.raises(ParseError, match=r"steps\[[01]\]"):
            parse_trace(text)
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("size", [7, 4, None, 5.5, "5"])
    def test_size_must_match_steps(self, size, tmp_path, capsys):
        doc = json.loads(write_trace(random_trace(np.random.default_rng(11), steps=3), "structured"))
        if size is None:
            del doc["size"]
        else:
            doc["size"] = size
        text = json.dumps(doc)
        with pytest.raises(ParseError, match="'size'"):
            parse_trace(text)
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "counts",
        [
            # a document no step can produce: a negative count, degenerate
            # above ratio, and 2 cells where a 2-subsystem step has 2 cells
            [-3, 7, 0, 5],
            [0, 3, 0, 0],
            [0, 0, 2, 3],
            [1, 0, 1, 2],
            [0, 1, 0, 0],
            [2, 2, 2, 0],
            [2**63 - 1, 2**63 - 1, 4, 0],  # a 64-bit sum of 2**64 + 2 wraps to 2
        ],
        ids=["negative", "equal-above-cells", "degenerate-above-cells", "degenerate-above-ratio", "short", "long",
             "sum-wraps"],
    )
    def test_branch_counts_a_step_cannot_produce(self, counts, tmp_path, capsys):
        doc = {
            "kind": "trace",
            "size": 2,
            "steps": [
                {"t": 2 + k, "w": [0.5, 0.4], "r": [[1.0, 0.5], [0.25, 1.0]], "branches": {"equal": 2}}
                for k in range(3)
            ],
        }
        doc["steps"][1]["branches"] = dict(zip(["one_zero", "equal", "ratio", "degenerate"], counts))
        text = json.dumps(doc)
        message = (
            f"trace steps[1]: branch counts {doc['steps'][1]['branches']} are not a step's: "
            "each lies in 0..2, degenerate <= ratio and one_zero + equal + ratio == 2"
        )
        with pytest.raises(DomainError) as raised:
            parse_trace(text)
        assert type(raised.value) is DomainError and str(raised.value) == message
        path = tmp_path / "trace.json"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    # the last row is a step whose counts were not kept
    @pytest.mark.parametrize("counts", [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 2], [1, 0, 1, 1], [0, 1, 1, 0], [0, 0, 0, 0]])
    def test_branch_counts_a_step_can_produce(self, counts):
        doc = json.loads(write_trace(random_trace(np.random.default_rng(12), steps=2, n=2), "structured"))
        doc["steps"][0]["branches"] = dict(zip(["one_zero", "equal", "ratio", "degenerate"], counts))
        assert parse_trace(json.dumps(doc)).branches[0].tolist() == counts
        del doc["steps"][0]["branches"]
        assert parse_trace(json.dumps(doc)).branches[0].tolist() == [0, 0, 0, 0]

    def test_a_table_trace_reads_back_as_structured(self):
        # a table keeps no branch counts, so its steps carry zeros
        table = write_trace(random_trace(np.random.default_rng(13), steps=3, n=3), "table")
        trace = parse_trace(table)
        again = parse_trace(write_trace(trace, "structured"))
        assert again == trace and not again.branches.any()
        assert write_trace(again, "table") == table

    def test_every_trace_holds_counts_a_step_can_produce(self):
        # the rule is the model's, so no trace that write_trace is given can
        # hold counts that parse_trace refuses
        trace = random_trace(np.random.default_rng(14), steps=3, n=2)
        branches = trace.branches.copy()
        branches[2] = [-3, 7, 0, 5]
        message = (
            "trace steps[2]: branch counts {'one_zero': -3, 'equal': 7, 'ratio': 0, 'degenerate': 5} are not a "
            "step's: each lies in 0..2, degenerate <= ratio and one_zero + equal + ratio == 2"
        )
        with pytest.raises(DomainError) as raised:
            SimulationTrace(trace.w, trace.r, branches, trace.start)
        assert str(raised.value) == message

    def test_integral_floats_accepted(self):
        trace = random_trace(np.random.default_rng(10), steps=3)
        doc = json.loads(write_trace(trace, "structured"))
        for step_doc in doc["steps"]:
            step_doc["t"] = float(step_doc["t"])
            step_doc["branches"] = {k: float(v) for k, v in step_doc["branches"].items()}
        assert parse_trace(json.dumps(doc)) == trace


class TestAuxiliaryDocuments:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(5)
        entries = rng.uniform(-1, 1, size=(5, 5))
        assert np.array_equal(parse_matrix(write_matrix(entries)), entries)

    def test_matrix_header_required(self):
        with pytest.raises(ParseError):
            parse_matrix("0.5,0.5\n0.5,0.5\n")

    def test_matrix_must_be_square(self):
        with pytest.raises(ParseError):
            parse_matrix("S1,S2\n0.5,0.5\n")

    def test_qc_table_round_trip(self):
        points = [QualityPoint(t, 0.8, 0.72, 0.72 / 0.8) for t in range(5)]
        assert parse_qc_table(write_qc_table(points)) == points

    def test_ranking_round_trip(self):
        ranking = influence_ranking(random_trace(np.random.default_rng(6), steps=9))
        assert parse_ranking(write_ranking(ranking)) == ranking

    @pytest.mark.parametrize(
        "order",
        [["S0", "S1", "S2"], ["X3", "S1", "S2"], ["S1", "S1", "S2"], ["S1", "S2", "S4"], 5, [1, 2, 3]],
        ids=["S0", "bad-prefix", "duplicate", "gap", "int", "int-labels"],
    )
    def test_ranking_labels_and_order_validated(self, order):
        doc = {
            "kind": "ranking",
            "design": "column-sums",
            "order": order,
            "loadings": [0.6, 0.5, 0.4],
            "explained_variance_ratios": [0.7, 0.2, 0.1],
        }
        with pytest.raises(ParseError):
            parse_ranking(json.dumps(doc))

    def test_ranking_order_must_be_permutation(self):
        with pytest.raises(DomainError):
            InfluenceRanking("column-sums", (0, 0), (0.5, 0.4), (0.6, 0.4))

    def test_tune_report_must_be_object(self):
        rng = np.random.default_rng(7)
        doc = json.loads(write_tune_result(
            random_influence(rng, timestamp=0),
            random_influence(rng, timestamp=1),
            CalibrationReport(1e-6, (0.0,) * 5, (1,) * 5),
        ))
        doc["report"] = []
        with pytest.raises(ParseError):
            parse_tune_result(json.dumps(doc))

    def test_tune_result_round_trip(self):
        rng = np.random.default_rng(7)
        result = (
            random_influence(rng, timestamp=0),
            random_influence(rng, timestamp=1),
            CalibrationReport(1e-6, (0.0, 0.0, 2e-6, 0.0, 0.0), (1, 0, 200, 2, 1), ("row 3: stuck",)),
        )
        back = parse_tune_result(write_tune_result(*result))
        assert type(back) is tuple and back == result  # (r_prev, r_curr, report), each equal


def _with_literal(doc: dict, place, literal: str) -> str:
    """``doc`` as JSON text with the cell that ``place`` marks replaced by
    a raw JSON literal, which ``json.dumps`` could not produce."""
    place(doc, "@")
    return json.dumps(doc).replace('"@"', literal)


def _trace_doc() -> dict:
    return json.loads(write_trace(random_trace(np.random.default_rng(12), steps=3), "structured"))


def _ranking_doc() -> dict:
    return json.loads(write_ranking(influence_ranking(random_trace(np.random.default_rng(13), steps=6))))


def _tune_doc() -> dict:
    rng = np.random.default_rng(14)
    return json.loads(write_tune_result(
        random_influence(rng, timestamp=0),
        random_influence(rng, timestamp=1),
        CalibrationReport(1e-6, (0.0,) * 5, (1,) * 5),
    ))


# (reader, function making a valid document, cell to overwrite)
NUMBER_CELLS = {
    "scenario-w0": (parse_scenario, minimal_doc, lambda d, v: d["w0"].__setitem__(0, v)),
    "scenario-r1": (parse_scenario, minimal_doc, lambda d, v: d.update(r1=[[v] + row[1:] for row in d["r1"]])),
    "scenario-u": (parse_scenario, minimal_doc, lambda d, v: d.update(u=[[v] * 5] * 5)),
    "scenario-policy": (parse_scenario, minimal_doc, lambda d, v: d.update(policy={"1": [v, 0, 0, 0, 0]})),
    "trace-w": (parse_trace, _trace_doc, lambda d, v: d["steps"][0]["w"].__setitem__(0, v)),
    "trace-r": (parse_trace, _trace_doc, lambda d, v: d["steps"][1]["r"][0].__setitem__(1, v)),
    "ranking-loadings": (parse_ranking, _ranking_doc, lambda d, v: d["loadings"].__setitem__(0, v)),
    "tune-r_prev": (parse_tune_result, _tune_doc, lambda d, v: d["r_prev"][0].__setitem__(1, v)),
}
HUGE_INTEGERS = {"400-digit": "1" + "0" * 400, "5000-digit": "1" * 5000, "negative": "-" + "9" * 320}


class TestJsonReaders:
    @pytest.mark.parametrize("cell", sorted(NUMBER_CELLS))
    @pytest.mark.parametrize("literal", sorted(HUGE_INTEGERS))
    def test_huge_integer_is_a_parse_error(self, cell, literal):
        reader, make, place = NUMBER_CELLS[cell]
        text = _with_literal(make(), place, HUGE_INTEGERS[literal])
        with pytest.raises(ParseError, match="binary64"):
            reader(text)

    @pytest.mark.parametrize("cell", sorted(NUMBER_CELLS))
    def test_largest_integer_that_fits_is_read(self, cell):
        # 2**1023 fits a binary64: decoding succeeds and any complaint is
        # about the value, never an escaped exception
        reader, make, place = NUMBER_CELLS[cell]
        try:
            reader(_with_literal(make(), place, str(2**1023)))
        except (ParseError, ValidationError) as e:
            assert "binary64" not in str(e)

    @pytest.mark.parametrize("reader", [parse_scenario, parse_trace, parse_ranking, parse_tune_result])
    def test_deep_nesting_is_a_parse_error(self, reader):
        deep = "[" * 50_000 + "]" * 50_000
        with pytest.raises(ParseError):
            reader('{"kind": "trace", "steps": %s}' % deep)
        with pytest.raises(ParseError):
            reader(deep)

    @pytest.mark.parametrize("literal", sorted(HUGE_INTEGERS))
    def test_huge_integer_through_simulate_exits_1(self, literal, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(_with_literal(minimal_doc(), NUMBER_CELLS["scenario-r1"][2], HUGE_INTEGERS[literal]))
        assert main(["simulate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "binary64" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "place, literal",
        [
            (lambda d, v: d.update(t_prev=v), "1e400"),
            (lambda d, v: d.update(t_curr=v), "1e400"),
            (lambda d, v: d["report"]["sweeps"].__setitem__(0, v), "1e400"),
            (lambda d, v: d.update(t_prev=v), "2.9"),
            (lambda d, v: d.update(t_curr=v), "2.9"),
            (lambda d, v: d["report"]["sweeps"].__setitem__(0, v), "2.9"),
            (lambda d, v: d.update(t_prev=v), "true"),
            (lambda d, v: d.update(t_curr=v), "true"),
            (lambda d, v: d["report"]["sweeps"].__setitem__(0, v), "true"),
            (lambda d, v: d["report"]["residuals"].__setitem__(0, v), "true"),
            (lambda d, v: d["report"]["residuals"].__setitem__(0, v), '"0.5"'),
        ],
        ids=[
            "t_prev-1e400", "t_curr-1e400", "sweeps-1e400",
            "t_prev-2.9", "t_curr-2.9", "sweeps-2.9",
            "t_prev-true", "t_curr-true", "sweeps-true", "residual-true", "residual-str",
        ],
    )
    def test_tune_fields_are_checked(self, place, literal):
        # int() and float() read 2.9 as 2 and true as 1, and int(1e400) overflows
        with pytest.raises(ParseError):
            parse_tune_result(_with_literal(_tune_doc(), place, literal))

    @pytest.mark.parametrize(
        "place, literal",
        [
            (lambda d, v: d["report"].update(tol=v), "true"),
            (lambda d, v: d["report"].update(tol=v), '"1e-6"'),
            (lambda d, v: d["report"].update(tol=v), "0"),
            (lambda d, v: d["report"].update(tol=v), "-1e-6"),
            (lambda d, v: d["report"].update(tol=v), "NaN"),
            (lambda d, v: d["report"].update(tol=v), "Infinity"),
            (lambda d, v: d["report"]["residuals"].__setitem__(0, v), "NaN"),
            (lambda d, v: d["report"]["residuals"].__setitem__(0, v), "Infinity"),
        ],
        ids=["tol-true", "tol-str", "tol-zero", "tol-negative", "tol-nan", "tol-inf", "residual-nan", "residual-inf"],
    )
    def test_tune_tol_and_residuals_are_finite_numbers(self, place, literal):
        with pytest.raises(ParseError):
            parse_tune_result(_with_literal(_tune_doc(), place, literal))

    @pytest.mark.parametrize(
        "tol, residual", [(0.0, 0.0), (-1e-6, 0.0), (float("inf"), 0.0), (float("nan"), 0.0),
                          (1e-6, float("nan")), (1e-6, float("inf")), (1e-6, -1.0)]
    )
    def test_calibration_report_invariants(self, tol, residual):
        with pytest.raises(DomainError):
            CalibrationReport(tol, (0.0, residual), (1, 1))

    @pytest.mark.parametrize(
        "place, literal",
        [
            (lambda d, v: d.update(loadings=[v] * len(d["loadings"])), "NaN"),
            (lambda d, v: d["loadings"].__setitem__(0, v), "Infinity"),
            (lambda d, v: d.update(design=v), "5"),
            (lambda d, v: d.update(design=v), '"rows"'),
        ],
        ids=["nan-loadings", "inf-loading", "design-int", "design-unknown"],
    )
    def test_ranking_loadings_and_design_are_checked(self, place, literal):
        with pytest.raises(ParseError):
            parse_ranking(_with_literal(_ranking_doc(), place, literal))

    @pytest.mark.parametrize(
        "reader, doc, place, literal",
        [
            (parse_ranking, _ranking_doc, lambda d, v: d["loadings"].__setitem__(0, v), '"0.75"'),
            (parse_ranking, _ranking_doc, lambda d, v: d["loadings"].__setitem__(0, v), "true"),
            (parse_ranking, _ranking_doc, lambda d, v: d["explained_variance_ratios"].__setitem__(0, v), "true"),
            (parse_tune_result, _tune_doc, lambda d, v: d.update(r_curr=v), "null"),
            (parse_tune_result, _tune_doc, lambda d, v: d["report"].update(notes=[v]), "1.5"),
            (parse_tune_result, _tune_doc, lambda d, v: d["report"].update(notes=[v]), "null"),
            (parse_tune_result, _tune_doc, lambda d, v: d["report"].update(notes=v), '"abc"'),
        ],
        ids=["loading-str", "loading-true", "ratio-true", "r_curr-null", "note-number", "note-null", "notes-str"],
    )
    def test_fields_keep_their_json_types(self, reader, doc, place, literal):
        # float() reads "0.75" and true, tuple() splits a string into its
        # characters, and a null matrix is zero-dimensional
        with pytest.raises(ParseError):
            reader(_with_literal(doc(), place, literal))

    @pytest.mark.parametrize(
        "design, loadings",
        [("column-sums", (float("nan"),) * 3), ("column-sums", (float("inf"), 0.5, 0.4)), (5, (0.6, 0.5, 0.4))],
        ids=["nan", "inf", "design"],
    )
    def test_ranking_invariants(self, design, loadings):
        with pytest.raises(DomainError):
            InfluenceRanking(design, (0, 1, 2), loadings, (0.7, 0.2, 0.1))

    def test_tune_integral_floats_accepted(self):
        doc = _tune_doc()
        doc["t_prev"], doc["report"]["sweeps"][0] = 0.0, 1.0
        assert parse_tune_result(json.dumps(doc)) == parse_tune_result(json.dumps(_tune_doc()))

    def test_kind_is_checked(self):
        doc = _tune_doc()
        doc["kind"] = "ranking"
        with pytest.raises(ParseError, match="kind == 'tune'"):
            parse_tune_result(json.dumps(doc))
        with pytest.raises(ParseError, match="JSON object"):
            parse_scenario("[1, 2]")


@pytest.mark.parametrize(
    "reader, text",
    [
        (parse_series, "t,S1,S2\n1_0,0.5,0.4\n"),
        (parse_series, "t,S1,S2\n0,0.1_0,0.4\n"),
        (parse_series, "t,S1,S2,IHDI\n0,0.5,0.4,0.8_0\n"),
        (parse_matrix, "S1,S2\n1,0_5\n0.5,1\n"),
        (parse_trace, "t,W1,W2,R11,R12,R21,R22\n1_0,0.5,0.4,1,0.5,0.5,1\n"),
        (parse_trace, "t,W1,W2,R11,R12,R21,R22\n1,0.5,0.4,1,0.5,0_5,1\n"),
        (parse_qc_table, "t,MEAN_W,IHDI,QC\n1_0,0.5,0.8,0.625\n"),
        (parse_qc_table, "t,MEAN_W,IHDI,QC\n1,0.5,0.8,0.6_25\n"),
    ],
    ids=["series-t", "series-cell", "series-ihdi", "matrix", "trace-t", "trace-cell", "qc-t", "qc-cell"],
)
def test_underscore_in_a_csv_row_is_a_parse_error(reader, text):
    # int() and float() accept PEP 515 underscores: '1_0' would read as 10
    with pytest.raises(ParseError, match="line 2: '_'"):
        reader(text)


TRACE_HEADER = "t,W1,W2,R11,R12,R21,R22\n"


class TestCsvReader:
    """The one reader behind ``parse_series``, ``parse_matrix``, table
    traces and ``parse_qc_table``: errors name physical lines and columns."""

    @pytest.mark.parametrize(
        "reader, text, where",
        [
            (parse_series, "t,S1,S2\n\n\n0,0.5,x\n", "line 4: non-numeric cell 'x' in column S2"),
            (parse_series, "\nt,S1,S2\n0,0.5,0.4\n  \n1,0.5,0.4\n1,0.5,0.4\n", "line 6: t = 1 is non-monotone"),
            (parse_matrix, "S1,S2\n\n1,x\n0.5,1\n", "line 3: non-numeric cell 'x' in column S2"),
            (parse_trace, TRACE_HEADER + "\n1,0.5,0.4,1,0.5,0.5,x\n", "line 3: non-numeric cell 'x' in column R22"),
            (parse_qc_table, "t,MEAN_W,IHDI,QC\n\n1,0.5,x,0.625\n", "line 3: non-numeric cell 'x' in column IHDI"),
        ],
        ids=["series", "series-monotone", "matrix", "trace", "qc"],
    )
    def test_blank_lines_are_counted(self, reader, text, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            reader(text)

    @pytest.mark.parametrize(
        "reader, text",
        [
            (parse_series, "t,S1,S2\n\u0661,0.\u0665,\uff10.5\n"),
            (parse_series, "t,S1,S2\n1,0.5,\uff10.5\n"),
            (parse_matrix, "S1,S2\n\u0661,1\n0.5,1\n"),
            (parse_trace, TRACE_HEADER + "\u0661,0.5,0.4,1,0.5,0.5,1\n"),
            (parse_qc_table, "t,MEAN_W,IHDI,QC\n1,0.5,0.8,0.6\u0662\u0665\n"),
        ],
        ids=["series-t", "series-cell", "matrix", "trace", "qc"],
    )
    def test_non_ascii_digits_are_a_parse_error(self, reader, text):
        # int() and float() read any Unicode decimal digit: '\u0661' is 1
        with pytest.raises(ParseError, match="line 2: non-ASCII"):
            reader(text)

    def test_only_newline_ends_a_line(self):
        # str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85 and \u2028;
        # here they stay in their cell, where float reads \x0b and \x0c as space
        assert parse_series("t,S1,S2\n0,0.5\x0c,0.4\n") == SeriesTable([0], [[0.5, 0.4]])
        crlf = "t,S1,S2,IHDI\r\n0,0.5,0.4\x0b,0.8\r\n\r\n1,0.5,0.25,0.8\r\n"
        assert parse_series(crlf) == parse_series(crlf.replace("\r\n", "\n"))
        assert parse_matrix("S1,S2\r\n1,0.5\r\n0.5,1\x0c\r\n").tolist() == [[1.0, 0.5], [0.5, 1.0]]

    @pytest.mark.parametrize(
        "text, where",
        [
            ("t,S1,S2\n0,0.5,0.4\x0c\n1,0.5,x\n", "line 3: non-numeric cell 'x' in column S2"),
            ("t,S1,S2\n0,0.5,0.4\x1c\n1,0.5,0.4\n", r"line 2: non-numeric cell '0.4\x1c' in column S2"),
            ("t,S1,S2\n0,0.5,0.4\n1,0.5,0.4\u2028\n", "line 3: non-ASCII text"),
            ("t,S1,S2\u2028\n0,0.5,0.4\n", "line 1: series header"),
        ],
        ids=["form-feed", "file-separator", "line-separator", "header-line-separator"],
    )
    def test_control_characters_stay_on_their_line(self, text, where):
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_series(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_matrix_cells_must_be_finite(self, cell):
        with pytest.raises(ParseError, match="line 3: S1 = .* is not a finite number"):
            parse_matrix(f"S1,S2\n1,0.5\n{cell},1\n")

    @pytest.mark.parametrize("rows", ["1,0.5\n", "1,0.5\n0.5,1\n0.5,1\n"], ids=["short", "long"])
    def test_matrix_must_be_square(self, rows):
        with pytest.raises(ParseError, match=r"line \d+: matrix must be square"):
            parse_matrix("S1,S2\n" + rows)

    @pytest.mark.parametrize(
        "rows, where",
        [
            ("1,0.5,0.4,1,0.5,0.5,1\n2,0.5,nan,1,0.5,0.5,1\n", "line 3: W2 = nan"),
            ("1,0.5,0.4,1,0.5,0.5,1e400\n", "line 2: R22 = inf"),
            ("1,0.5,0.4,1,0.5,0.5,1\n2,0.5,0.4,1,0.5,0.5,0.9\n", "line 3: R22 = 0.9 but the diagonal"),
            ("1,0.5,0.4,1,-0.5,0.5,1\n", "line 2: R12 = -0.5 is negative"),
            ("1,0.5,0.4,1,0.5,0.5,1\n3,0.5,0.4,1,0.5,0.5,1\n", "line 3: t = 3 does not follow"),
            ("2,0.5,0.4,1,0.5,0.5,1\n1,0.5,0.4,1,0.5,0.5,1\n", "line 3: t = 1 does not follow"),
        ],
        ids=["nan", "1e400", "diagonal", "negative", "gap", "backwards"],
    )
    def test_trace_table_rules_name_the_line(self, rows, where, tmp_path, capsys):
        text = TRACE_HEADER + rows
        with pytest.raises(ParseError, match=re.escape(where)):
            parse_trace(text)
        path = tmp_path / "trace.csv"
        path.write_text(text)
        assert main(["rank", "--trace", str(path)]) == 1
        assert where in capsys.readouterr().err

    def test_quality_row_must_be_consistent(self):
        with pytest.raises(ParseError, match="line 3: inconsistent quality point"):
            parse_qc_table("t,MEAN_W,IHDI,QC\n1,0.5,0.8,0.625\n2,0.5,0.8,0.9\n")

    def test_quality_index_must_lie_in_unit_interval(self):
        # the rule a series' IHDI column follows, so qc can write no such row
        with pytest.raises(ParseError, match=re.escape("line 2: index value must lie in (0, 1], got 1.5")):
            parse_qc_table("t,MEAN_W,IHDI,QC\n0,0.6,1.5,0.4\n1,3,2,1.5\n")
        assert parse_qc_table("t,MEAN_W,IHDI,QC\n0,0.6,1,0.6\n") == [QualityPoint(0, 1.0, 0.6, 0.6)]

    def test_quality_header_is_compared_after_stripping(self):
        points = [QualityPoint(1, 0.8, 0.5, 0.625)]
        assert parse_qc_table(" t , MEAN_W ,IHDI,QC \n1,0.5,0.8,0.625\n") == points
        with pytest.raises(ParseError, match="line 1: quality table header"):
            parse_qc_table("t,IHDI,MEAN_W,QC\n1,0.8,0.5,0.625\n")

    @pytest.mark.parametrize(
        "t, message",
        [
            ("1.0", "non-integer cell '1.0' in column t"),
            ("1e3", "non-integer cell '1e3' in column t"),
            ("1" * 400, "t = inf is not a finite number"),
            (str(2**53 + 1), "is not within (-2**53, 2**53)"),
            (str(-(2**53)), "is not within (-2**53, 2**53)"),
        ],
        ids=["decimal-point", "exponent", "400-digit", "2**53+1", "-2**53"],
    )
    def test_t_is_an_exact_integer(self, t, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_series(f"t,S1,S2\n{t},0.5,0.4\n")
        assert parse_series(f"t,S1,S2\n{2**53 - 1},0.5,0.4\n").timestamps == (2**53 - 1,)

    @pytest.mark.parametrize(
        "reader, text",
        [
            (parse_series, ""),
            (parse_series, "t,S1,S2\n"),
            (parse_series, "t,IHDI\n1,0.5\n"),
            (parse_matrix, "\n\n"),
            (parse_trace, "t,W1,R11\n1,0.5,1\n"),
            (parse_qc_table, "t,MEAN_W,IHDI\n1,0.5,0.8\n"),
        ],
        ids=["series-empty", "series-no-rows", "series-no-subsystem", "matrix-blank", "trace-one-subsystem", "qc"],
    )
    def test_header_and_rows_required(self, reader, text):
        with pytest.raises(ParseError, match="empty|header"):
            reader(text)


def _cells(values) -> str:
    """The CSV row format the one-%-per-row writer replaced, kept as its
    oracle: ``format(x, ".17g")`` per cell."""
    return ",".join([format(x, ".17g") for x in values])


CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e16, 123456789.0]
)


# The documents write_scenario and write_tune_result give for the inputs in
# TestCsvRows.test_writers_keep_their_bytes.  A round trip cannot see a key
# that moves, so the bytes are pinned.
SCENARIO_TEXT = """{
  "subsystems": [
    "a",
    "b"
  ],
  "w0": [
    0.5,
    0.25
  ],
  "w1": [
    0.75,
    0.125
  ],
  "r1": [
    [
      1.0,
      0.5
    ],
    [
      0.0,
      1.0
    ]
  ],
  "u": [
    [
      0.5,
      -0.25
    ],
    [
      0.1,
      1.0
    ]
  ],
  "policy": {
    "2": [
      0.125,
      -0.5
    ]
  },
  "options": {
    "clamp": false,
    "eps_delta": 1e-07,
    "normalize_w": false
  },
  "horizon": 3
}
"""
TUNE_TEXT = """{
  "kind": "tune",
  "t_prev": 0,
  "t_curr": 1,
  "r_prev": [
    [
      1.0,
      0.5
    ],
    [
      0.1,
      1.0
    ]
  ],
  "r_curr": [
    [
      1.0,
      0.0
    ],
    [
      0.25,
      1.0
    ]
  ],
  "report": {
    "tol": 1e-06,
    "residuals": [
      0.0,
      0.5
    ],
    "sweeps": [
      1,
      200
    ],
    "converged": [
      true,
      false
    ],
    "notes": [
      "row 2: not converged after 200 sweeps"
    ]
  }
}
"""


class TestCsvRows:
    """Every CSV writer formats a row with one ``%`` operation; the old
    per-cell ``format`` is its reference, byte for byte."""

    @given(
        rows=st.integers(0, 6).flatmap(
            lambda width: st.lists(st.lists(CSV_FLOATS, min_size=width, max_size=width), max_size=6)
        ),
        start=st.none() | st.integers(-(2**70), 2**70),
    )
    @settings(max_examples=300, deadline=None)
    @example(rows=[[-0.0, 5e-324, 1e308, -1e308, 2.0, 1e16]], start=None)
    @example(rows=[[-0.0], [5e-324], [-1.7976931348623157e308]], start=2)
    @example(rows=[[]], start=None)
    def test_matches_the_per_cell_format(self, rows, start):
        width = len(rows[0]) if rows else 3
        header = [f"S{k + 1}" for k in range(width)]
        if start is None:
            want = [_cells(row) for row in rows]
        else:
            header = ["t", *header]
            want = [f"{start + k},{_cells(row)}" for k, row in enumerate(rows)]
        timestamps = None if start is None else range(start, start + len(rows))
        assert _csv(header, rows, timestamps) == "\n".join([",".join(header), *want]) + "\n"

    def test_writers_keep_their_bytes(self):
        values = [[-0.0, 5e-324, 1e308], [-1e308, 2.0, 0.1]]
        assert write_matrix(np.array(values)) == "S1,S2,S3\n" + "\n".join(map(_cells, values)) + "\n"
        table = SeriesTable((3, 7), [[0.0, 5e-324], [1.0, 0.1]], [1.0, 5e-324])
        assert write_series(table) == "t,S1,S2,IHDI\n3,0,4.9406564584124654e-324,1\n7,1,0.10000000000000001,4.9406564584124654e-324\n"
        trace = random_trace(np.random.default_rng(5), steps=3, n=2)
        want = [f"{t},{_cells([*w.tolist(), *r.ravel().tolist()])}" for t, w, r in zip(range(2, 5), trace.w, trace.r)]
        assert write_trace(trace, "table") == "t,W1,W2,R11,R12,R21,R22\n" + "\n".join(want) + "\n"
        scenario = Scenario(
            subsystems=SubsystemSet(("a", "b")),
            w0=PerformanceVector([0.5, 0.25], 0),
            w1=PerformanceVector([0.75, 0.125], 1),
            r1=InfluenceMatrix([[1.0, 0.5], [0.0, 1.0]], 1),
            utility=UtilityMatrix([[0.5, -0.25], [0.1, 1.0]]),
            policy={2: PolicyIntervention([0.125, -0.5])},
            options=ModelOptions(clamp=False, eps_delta=1e-07, normalize_w=False),
            horizon=3,
        )
        assert write_scenario(scenario) == SCENARIO_TEXT
        assert parse_scenario(SCENARIO_TEXT) == scenario
        tuned = (
            InfluenceMatrix([[1.0, 0.5], [0.1, 1.0]], 0),
            InfluenceMatrix([[1.0, 0.0], [0.25, 1.0]], 1),
            CalibrationReport(1e-06, (0.0, 0.5), (1, 200), ("row 2: not converged after 200 sweeps",)),
        )
        assert write_tune_result(*tuned) == TUNE_TEXT
        assert parse_tune_result(TUNE_TEXT) == tuned


class _TaggedFloat(float):
    """The stdlib writes any float with ``float.__repr__``, ignoring a
    subclass's own ``__repr__`` and ``__str__``."""

    def __repr__(self):
        return "tagged"

    __str__ = __repr__


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1.7976931348623157e308,
                  float("nan"), float("inf"), -float("inf")]
JSON_FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)


@st.composite
def float_matrices(draw):
    """An n x n nested list of floats, n = 1..100, with special values
    dropped into a few cells."""
    n = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    for cell in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), JSON_FLOATS), max_size=4)):
        grid[cell[:2]] = cell[2]
    return grid.tolist()


JSON_LEAVES = st.one_of(
    JSON_FLOATS,
    JSON_FLOATS.map(np.float64),
    JSON_FLOATS.map(_TaggedFloat),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(),
)
JSON_DOCUMENTS = st.recursive(
    JSON_LEAVES | float_matrices() | st.lists(JSON_FLOATS),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=20,
)


def _wide_step() -> dict:
    rng = np.random.default_rng(100)
    return {
        "t": 7,
        "w": rng.random(100).tolist(),
        "r": rng.random((100, 100)).tolist(),
        "branches": {"one_zero": 12, "equal": 0, "ratio": 9888, "degenerate": 3},
    }


class TestJsonEmitter:
    """``_dumps`` is specified by ``json.dumps(indent=2)``, byte for byte."""

    @given(doc=JSON_DOCUMENTS)
    @example(doc=_wide_step())
    @example(doc=[0.5, 1, -0.0, True, None, 2.5, np.float64(0.1), "é"])
    @example(doc={"a": [1.0, float("nan"), float("inf"), -float("inf")], "b": [[], {}], "": [[[-0.0]]]})
    @settings(max_examples=200, deadline=None)
    def test_matches_the_stdlib(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{1: 0.5}, {None: 0.5}, {True: 0.5}, {1.5: 0.5}, {"a": [{2: 1.0}]}])
    def test_non_str_key_raises(self, doc):
        with pytest.raises(TypeError):
            _dumps(doc)
