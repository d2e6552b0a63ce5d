"""Parser fuzzing: mutated JSON documents keep the error contract.

Every mutated scenario either parses into a scenario that passes its own
``validate``, or is rejected with ParseError or ValidationError; through
the CLI every one of them exits 0, 1 or 2, and a rejected one exits 1.
Every mutated ranking or tune document is either rejected with ParseError
or read into a value that, written and read again, is equal to it.  In
every JSON document, a number spelled as a string or as ``true`` is
refused, and the CLI exits 1 on it.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossimpact import (
    CalibrationReport,
    InfluenceMatrix,
    InfluenceRanking,
    ParseError,
    ValidationError,
    parse_ranking,
    parse_scenario,
    parse_trace,
    parse_tune_result,
    simulate,
    write_ranking,
    write_trace,
    write_tune_result,
)
from crossimpact.cli import main

BASE = {
    "subsystems": ["a", "b", "c"],
    "w0": [0.5, 0.25, 0.75],
    "w1": [0.5, 0.375, 0.625],
    "r1": [[1.0, 0.5, 0.0], [0.25, 1.0, 0.75], [0.125, 0.5, 1.0]],
    "u": [[0.25, 0.125, 0.0], [0.1, 0.3, 0.2], [0.0, 0.5, 0.25]],
    "policy": {"1": [0.0, 0.05, -0.05], "3": [0.1, 0.0, 0.0]},
    "options": {"clamp": True, "eps_delta": 1e-9, "normalize_w": True},
    "horizon": 4,
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
cell_values = st.floats() | st.sampled_from(
    [-0.5, -0.0, 0.0, 1.0, 1.5, 1e308, -1e-308, float("nan"), float("inf")]
)
factors = st.sampled_from([-1, 0, 2, 0.5, 1e3, 1e300, -1e-300])
PATH_ACTIONS = ["drop", "retype", "rescale", "cell", "resize", "extra"]
ACTIONS = PATH_ACTIONS + ["policy", "option"]
STEP_KEYS = ["0", "01", "+1", " 2", "3", "4", "5", "-1", "1_0", "x"]


def _paths(node, prefix=()):
    """Every path into ``node``, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _scaled(node, factor):
    if isinstance(node, list):
        return [_scaled(v, factor) for v in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return node * factor
    return node


def _mutate_path(draw, doc: dict, action: str) -> None:
    """Apply one of ``PATH_ACTIONS`` to a random path of ``doc``, in place."""
    paths = sorted(_paths(doc), key=repr)
    if not paths:
        return
    path = draw(st.sampled_from(paths))
    parent, key = _get(doc, path[:-1]), path[-1]
    if action == "drop" and isinstance(parent, dict):
        del parent[key]
    elif action == "retype":
        parent[key] = draw(json_values)
    elif action == "rescale":
        parent[key] = _scaled(parent[key], draw(factors))
    elif action == "cell":
        parent[key] = draw(cell_values)
    elif action == "resize" and isinstance(parent[key], list):
        if parent[key] and draw(st.booleans()):
            parent[key].pop()
        else:
            parent[key].append(json.loads(json.dumps(parent[key][-1])) if parent[key] else 0.5)
    elif action == "extra":
        doc[draw(st.text(max_size=6))] = draw(json_values)


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(BASE))
    if draw(st.booleans()):
        doc["u"] = "calibrate"
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(ACTIONS))
        if action == "policy" and isinstance(doc.get("policy"), dict):
            step = draw(st.sampled_from(STEP_KEYS) | st.text(max_size=3))
            doc["policy"][step] = draw(st.lists(cell_values, min_size=2, max_size=4))
        elif action == "option" and isinstance(doc.get("options"), dict):
            name = draw(st.sampled_from(["clamp", "normalize_w", "eps_delta"]))
            doc["options"][name] = draw(st.booleans() | cell_values)
        else:
            _mutate_path(draw, doc, action)
    if draw(st.booleans()) and isinstance(doc.get("horizon"), int):
        doc["horizon"] = draw(st.integers(-2, 8))
    return json.dumps(doc)


def _policy_text(items: str) -> str:
    return json.dumps({k: v for k, v in BASE.items() if k != "policy"})[:-1] + ', "policy": {%s}}' % items


def _literal_text(literal: str) -> str:
    return json.dumps(BASE).replace("0.125", literal, 1)


def _unbounded_text(**changes) -> str:
    """BASE without clamping or normalization, with ``changes`` applied."""
    doc = dict(BASE, options={"clamp": False, "eps_delta": 1e-9, "normalize_w": False})
    doc.update(changes)
    return json.dumps(doc)


DEEP = "[" * 50_000 + "]" * 50_000


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@given(text=mutated_documents())
@example(text=json.dumps(BASE))
@example(text=DEEP)
@example(text='{"w0": %s}' % DEEP)
@example(text=_literal_text("1" + "0" * 400))
@example(text=_literal_text("1" * 5000))
@example(text=json.dumps(BASE).replace("0.05", "1" + "0" * 400))
@example(text=json.dumps(BASE).replace('"u": [[0.25', '"u": [[1%s' % ("0" * 400)))
@example(text=_policy_text('"1": [0.1, 0, 0], "01": [0.2, 0, 0]'))
# overflow in the calibration's sum of squares and in the policy sum must
# end as a DomainError, with no numpy warning on the way
@example(text=_unbounded_text(u="calibrate", r1=[[1.0, 0.5, 0.0], [0.25, 1.0, 0.75], [1.25e299, 0.5, 1.0]]))
@example(text=_unbounded_text(u=[[1e308, 0, 0], [0, 1, 0], [0, 0, 1]], policy={"1": [1e308, 0, 0]}))
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_keep_the_error_contract(text, scenario_path):
    try:
        scenario = parse_scenario(text)
    except (ParseError, ValidationError):
        scenario = None
    else:
        assert scenario.validate() == []
    scenario_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", str(scenario_path)])
    assert code in (0, 1, 2)
    if scenario is None:
        assert code == 1
    assert "Traceback" not in err.getvalue()


# Machine output of ``rank`` and ``tune``, as their writers spell it.
OUTPUTS = {
    "ranking": (
        parse_ranking,
        write_ranking,
        write_ranking(InfluenceRanking("column-sums", (2, 0, 1), (0.75, 0.5, 0.125), (0.625, 0.25, 0.125))),
    ),
    "tune": (
        parse_tune_result,
        lambda result: write_tune_result(*result),
        write_tune_result(
            InfluenceMatrix(BASE["r1"], 1),
            InfluenceMatrix([[1.0, 0.5, 0.0], [0.25, 1.0, 0.875], [0.125, 0.5, 1.0]], 2),
            CalibrationReport(1e-6, (0.0, 2.5e-7, 0.5), (3, 1, 200), ("row 3: bracket exhausted",)),
        ),
    ),
}
LABELS = ["S0", "S1", "S01", "S4", "s1", " S1", "S1.0", "S\u0661", "1", ""]


@st.composite
def mutated_outputs(draw):
    kind = draw(st.sampled_from(sorted(OUTPUTS)))
    doc = json.loads(OUTPUTS[kind][2])
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(PATH_ACTIONS + ["label"]))
        if action == "label" and isinstance(doc.get("order"), list) and doc["order"]:
            doc["order"][draw(st.integers(0, len(doc["order"]) - 1))] = draw(st.sampled_from(LABELS))
        else:
            _mutate_path(draw, doc, action)
    return kind, json.dumps(doc)


@given(doc=mutated_outputs())
@example(doc=("ranking", OUTPUTS["ranking"][2]))
@example(doc=("tune", OUTPUTS["tune"][2]))
@example(doc=("tune", OUTPUTS["tune"][2].replace('"r_curr": [', '"r_curr": null, "x": [')))
@settings(max_examples=200, deadline=None)
def test_mutated_outputs_keep_the_error_contract(doc):
    kind, text = doc
    parse, write, _ = OUTPUTS[kind]
    try:
        value = parse(text)
    except ParseError:
        return
    assert parse(write(value)) == value


# One document of each JSON kind.  A reader that took "0.5" or true for a
# number would write it back as a number, so the round trips above cannot
# see that fault; here every number in turn is spelled as text or true.
NUMBER_DOCUMENTS = {
    "scenario": (parse_scenario, "simulate", "--scenario", json.dumps(BASE)),
    "trace": (parse_trace, "rank", "--trace", write_trace(simulate(parse_scenario(json.dumps(BASE)), 3), "structured")),
    "ranking": (parse_ranking, None, None, OUTPUTS["ranking"][2]),
    "tune": (parse_tune_result, None, None, OUTPUTS["tune"][2]),
}


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def numbers_as_text_or_true(draw):
    kind = draw(st.sampled_from(sorted(NUMBER_DOCUMENTS)))
    doc = json.loads(NUMBER_DOCUMENTS[kind][3])
    path = draw(st.sampled_from(sorted((p for p in _paths(doc) if _is_json_number(_get(doc, p))), key=repr)))
    parent = _get(doc, path[:-1])
    parent[path[-1]] = draw(st.sampled_from([repr(parent[path[-1]]), True]))
    return kind, json.dumps(doc)


@given(doc=numbers_as_text_or_true())
@example(doc=("trace", NUMBER_DOCUMENTS["trace"][3].replace("1.0", '"1.0"', 1)))
@example(doc=("tune", OUTPUTS["tune"][2].replace("0.5", "true", 1)))
@settings(max_examples=200, deadline=None)
def test_numbers_spelled_as_text_or_true_are_refused(doc, scenario_path):
    kind, text = doc
    reader, command, flag, _ = NUMBER_DOCUMENTS[kind]
    with pytest.raises((ParseError, ValidationError)):
        reader(text)
    if command is None:
        return
    scenario_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main([command, flag, str(scenario_path)]) == 1
    assert "Traceback" not in err.getvalue()
