"""The benchmark's tracer wraps engine functions by name.

``perfbench/tracing.py`` replaces module attributes such as
``crossimpact.model.step`` with timing wrappers.  A refactor that renames
one of them, or stops calling it through its module, silently drops a
per-layer metric; these tests catch that in tier 1.  They only read the
tracer: it is loaded from its file, installed around one command and
removed again.
"""

import contextlib
import dataclasses
import importlib.util
import io
from pathlib import Path

import pytest

from crossimpact import SeriesTable, write_scenario, write_series
from crossimpact.cli import main
from conftest import self_consistent_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracing):
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracing.WRAPPED
        if getattr(tracing._resolve(owner), attr, None) is None
    ]
    assert missing == []


@pytest.mark.parametrize("horizon", [1, 7])
def test_simulate_calls_step_once_per_step(tracing, horizon, tmp_path, example_matrix, uniform_utility):
    path = tmp_path / "scenario.json"
    path.write_text(write_scenario(self_consistent_scenario(example_matrix, uniform_utility)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", "--scenario", str(path), "--horizon", str(horizon)])
    finally:
        tracer.uninstall()
    assert code == 0 and tracer.missing == []
    calls = [span[3] for span in tracer.spans]
    for name in ("model.step", "model.update_matrix", "model.compute_weights"):
        assert calls.count(name) == horizon, name
    assert calls.count("model.simulate") == 1


def captured(argv):
    """Exit code, stdout and stderr of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_tune_counts_policy_evaluations_without_changing_output(tracing, tmp_path):
    # the tracer hands tune_initial_r a counting copy of the default policy
    path = tmp_path / "series.csv"
    path.write_text(write_series(SeriesTable((0, 1), [[0.5, 0.4, 0.6], [0.55, 0.45, 0.5]])))
    argv = ["tune", "--series", str(path), "--u", "auto"]
    untraced = captured(argv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = captured(argv)
    finally:
        tracer.uninstall()
    assert traced == untraced and tracer.missing == []
    assert [span[3] for span in tracer.spans].count("calibration.tune_initial_r") == 1
    assert tracer.counts["calibration.policy_evals"] > 0
    assert "calibration.tune_sweeps" in tracer.counts


@pytest.mark.parametrize("trace_format, design", [("structured", "column-sums"), ("table", "flattened")])
def test_every_command_records_every_wrapped_layer(tracing, trace_format, design, tmp_path, monkeypatch):
    # one tiny benchmark case per trace format, run through all five
    # commands as the benchmark runs them: each wrapped name must record a span
    monkeypatch.syspath_prepend(str(TRACING.parent))  # workloads imports reference
    import workloads

    workload = dataclasses.replace(
        workloads.WORKLOADS["wide100"], n=6, cases=1, series_rows=12, horizon=8, policy_steps=3,
        trace_format=trace_format, design=design,
    )
    [case] = workloads.generate(workload, 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = {command: captured(case.argv[command])[0] for command in workloads.COMMANDS}
    finally:
        tracer.uninstall()
    assert codes == dict.fromkeys(workloads.COMMANDS, 0) and tracer.missing == []
    recorded = {span[3] for span in tracer.spans}
    assert [name for _, _, name in tracing.WRAPPED if name not in recorded] == []
