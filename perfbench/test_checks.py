"""Every output check must fail on a corrupted output.

Each test runs the program on one small seeded case, confirms that the
check passes on the real output, then corrupts the output and expects the
check to fail.  Run with ``python3 -m pytest perfbench`` from the
repository root.
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossimpact.cli import main  # noqa: E402

SMALL = dataclasses.replace(
    workloads.WORKLOADS["wide100"], n=6, cases=1, series_rows=12, horizon=8, policy_steps=3
)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    for seed in range(1, 50):
        (case,) = workloads.generate(SMALL, seed, tmp_path_factory.mktemp(f"seed{seed}"))
        stderr = {}
        for cmd in workloads.COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stderr(buf):
                assert main(case.argv[cmd]) == 0, buf.getvalue()
            stderr[cmd] = buf.getvalue()
        _, loadings, _ = checks.read_ranking(Path(case.outputs["rank"]).read_text())
        if loadings[0] - loadings[1] > 10 * checks.LOADING_TOL:  # a swap of the top two must show
            return case, stderr
    pytest.fail("no seed gives a ranking with distinct leading loadings")


def output(case, cmd):
    return Path(case.outputs[cmd]).read_text()


def run_check(case, stderr, cmd, text=None):
    text = output(case, cmd) if text is None else text
    return checks.check_output(SMALL, case, cmd, text, stderr[cmd])


@pytest.mark.parametrize("cmd", workloads.COMMANDS)
def test_real_outputs_pass(case, cmd):
    assert run_check(case[0], case[1], cmd) == []


def test_changed_trace_cell_fails(case):
    doc = json.loads(output(case[0], "simulate"))
    doc["steps"][3]["r"][0][1] = doc["steps"][3]["r"][0][1] * (1 + 1e-9) + 1e-12
    problems = run_check(*case, "simulate", json.dumps(doc))
    assert any("strengths at t=5" in p for p in problems)


def test_changed_performance_fails(case):
    doc = json.loads(output(case[0], "simulate"))
    doc["steps"][0]["w"][2] += 1e-9
    assert any("performance at t=2" in p for p in run_check(*case, "simulate", json.dumps(doc)))


def test_wrong_branch_count_fails(case):
    doc = json.loads(output(case[0], "simulate"))
    doc["steps"][2]["branches"]["degenerate"] += 1
    assert any("branch counts at t=4" in p for p in run_check(*case, "simulate", json.dumps(doc)))


def test_swapped_rank_order_fails(case):
    doc = json.loads(output(case[0], "rank"))
    doc["order"][0], doc["order"][1] = doc["order"][1], doc["order"][0]
    assert any("ranked above" in p for p in run_check(*case, "rank", json.dumps(doc)))


def test_wrong_explained_variance_fails(case):
    doc = json.loads(output(case[0], "rank"))
    doc["explained_variance_ratios"][0] -= 1e-6
    doc["explained_variance_ratios"][1] += 1e-6
    assert any("explained-variance" in p for p in run_check(*case, "rank", json.dumps(doc)))


def test_tuned_row_off_target_fails(case):
    doc = json.loads(output(case[0], "tune"))
    doc["r_prev"][2][0] -= 1e-3
    assert any("row 3 misses its target" in p for p in run_check(*case, "tune", json.dumps(doc)))


def test_tuned_advance_off_reference_fails(case):
    doc = json.loads(output(case[0], "tune"))
    row = doc["r_curr"][1]
    row[0] = 0.5 if row[0] != 0.5 else 0.25
    assert any("r_curr" in p for p in run_check(*case, "tune", json.dumps(doc)))


def test_calibrate_off_closed_form_fails(case):
    u = checks.read_matrix(output(case[0], "calibrate"))
    u[1, 2] += 1e-9
    assert run_check(*case, "calibrate", workloads.matrix_csv(u)) != []


def test_wrong_qc_value_fails(case):
    lines = output(case[0], "qc").splitlines()
    cells = lines[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)
    lines[5] = ",".join(cells)
    assert any("mean / IHDI" in p for p in run_check(*case, "qc", "\n".join(lines) + "\n"))


def test_wrong_trend_note_fails(case):
    note = case[1]["qc"]
    slope = checks.read_qc_notes(note)[1]
    wrong = note.replace(f"slope={slope:.6g}", f"slope={slope + 1e-3:.6g}")
    assert any("slope" in p for p in run_check(case[0], {"qc": wrong}, "qc"))


def test_rank_reader_rejects_bad_labels():
    order, _, _ = checks.read_ranking(json.dumps(
        {"order": ["S0", "X3", "S2"], "loadings": [1, 1, 1], "explained_variance_ratios": [1, 0, 0]}
    ))
    assert order.tolist() == [-1, -1, 1]
