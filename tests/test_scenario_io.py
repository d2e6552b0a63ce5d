"""Parsing, validation aggregation and lossless round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossimpact import (
    CalibrationReport,
    DomainError,
    InfluenceRanking,
    ModelOptions,
    ParseError,
    PerformanceVector,
    PolicyIntervention,
    QualityPoint,
    Scenario,
    SubsystemSet,
    TuneResult,
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
        assert scenario.policy[3] == PolicyIntervention([0.1, 0, 0, 0, 0], 3)

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
        ],
    )
    def test_every_violation_is_named(self, mutate, fragment):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ValidationError) as err:
            parse_scenario(json.dumps(doc))
        assert any(fragment in v for v in err.value.violations), err.value.violations

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
            policy[int(step_key)] = PolicyIntervention(rng.uniform(-0.1, 0.1, 5), int(step_key))
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
        table = parse_series(text, normalized=False)
        assert table.values[0, 0] == 1.5

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
        for ours, theirs in zip(trace.steps, back.steps):
            assert ours.timestamp == theirs.timestamp
            assert ours.performance == theirs.performance
            assert ours.influence == theirs.influence

    def test_single_step_table_has_one_row(self):
        trace = random_trace(np.random.default_rng(3), steps=1)
        text = write_trace(trace, "table")
        assert len(text.strip().splitlines()) == 2  # header + one data row

    def test_simulated_diagnostics_cover_all_cells(self, example_matrix, uniform_utility):
        scenario = self_consistent_scenario(example_matrix, uniform_utility)
        doc = json.loads(write_trace(simulate(scenario, 5), "structured"))
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
        result = TuneResult(
            random_influence(rng, timestamp=0),
            random_influence(rng, timestamp=1),
            CalibrationReport(1e-6, (0.0,) * 5, (1,) * 5),
        )
        doc = json.loads(write_tune_result(result))
        doc["report"] = []
        with pytest.raises(ParseError):
            parse_tune_result(json.dumps(doc))

    def test_tune_result_round_trip(self):
        rng = np.random.default_rng(7)
        result = TuneResult(
            random_influence(rng, timestamp=0),
            random_influence(rng, timestamp=1),
            CalibrationReport(1e-6, (0.0, 0.0, 2e-6, 0.0, 0.0), (1, 0, 200, 2, 1), ("row 3: stuck",)),
        )
        back = parse_tune_result(write_tune_result(result))
        assert back.r_prev == result.r_prev
        assert back.r_curr == result.r_curr
        assert back.report == result.report
