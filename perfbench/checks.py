"""Readers for the program's output documents and the checks applied to them.

The readers parse the documents with the standard library and numpy, not
with the program's own parsers.  Each ``check_*`` function returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference as ref

RTOL = 1e-12  # one step of the program against one step of the reference
ATOL = 1e-14
SLACK = 1e-13  # rounding allowance on top of a tolerance the program was given


def _rows(text):
    return [line.split(",") for line in text.splitlines() if line.strip()]


def read_matrix(text):
    rows = _rows(text)
    return np.array([[float(c) for c in row] for row in rows[1:]])


def read_trace(text):
    """(t, W, R, branches or None) of a table or structured trace."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        steps = doc["steps"]
        branches = np.array(
            [[s["branches"][k] for k in ("one_zero", "equal", "ratio", "degenerate")] for s in steps]
        )
        return (
            np.array([s["t"] for s in steps]),
            np.array([s["w"] for s in steps], dtype=float),
            np.array([s["r"] for s in steps], dtype=float),
            branches,
        )
    rows = _rows(text)
    n = sum(1 for h in rows[0] if h.startswith("W"))
    body = np.array([[float(c) for c in row] for row in rows[1:]])
    return body[:, 0].astype(int), body[:, 1 : n + 1], body[:, n + 1 :].reshape(-1, n, n), None


def read_ranking(text):
    """(order as 0-based indices, loadings, explained-variance ratios)."""
    doc = json.loads(text)
    order = []
    for label in doc["order"]:
        m = re.fullmatch(r"S([1-9][0-9]*)", label)
        order.append(int(m.group(1)) - 1 if m else -1)
    return np.array(order), np.array(doc["loadings"], dtype=float), np.array(
        doc["explained_variance_ratios"], dtype=float
    )


def read_qc(text):
    """(t, MEAN_W, IHDI, QC) columns of a quality table."""
    body = np.array([[float(c) for c in row] for row in _rows(text)[1:]])
    return body[:, 0].astype(int), body[:, 1], body[:, 2], body[:, 3]


def read_qc_notes(stderr):
    """(trend class, slope, satisfiable) from the ``qc`` command's notes."""
    m = re.search(r"trend=(\w+) slope=(\S+) satisfiable=(true|false)", stderr)
    if m is None:
        return None
    return m.group(1), float(m.group(2)), m.group(3) == "true"


def _close(a, b, rtol=RTOL, atol=ATOL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def check_calibrate(strengths, target, utility_text):
    """The min-norm closed form, and the target row it must reproduce."""
    u = read_matrix(utility_text)
    problems = []
    if not _close(u, ref.min_norm_utility(strengths, target)):
        problems.append("calibrate: utility differs from the min-norm closed form")
    elif not _close((np.asarray(strengths) * u).sum(axis=1), target, rtol=0.0, atol=1e-12):
        problems.append("calibrate: utility does not reproduce the target row")
    return problems


def check_tune(w_prev, w_curr, utility, tol, tune_text):
    """Each tuned row reproduces its target within ``tol``; entries lie in
    [0, 1] with a unit diagonal; ``r_curr`` is the reference update of the
    tuned matrix."""
    doc = json.loads(tune_text)
    r_prev = np.array(doc["r_prev"], dtype=float)
    r_curr = np.array(doc["r_curr"], dtype=float)
    n = len(w_prev)
    problems = []
    for name, r in (("r_prev", r_prev), ("r_curr", r_curr)):
        if r.shape != (n, n):
            return [f"tune: {name} has shape {r.shape}, expected {(n, n)}"]
        if np.any(r < 0.0) or np.any(r > 1.0) or not np.all(np.diagonal(r) == 1.0):
            problems.append(f"tune: {name} leaves [0, 1] or its diagonal is not 1")
    off = np.abs((r_prev * utility).sum(axis=1) - w_curr)
    for i in np.flatnonzero(off > tol + SLACK):
        problems.append(f"tune: row {i + 1} misses its target by {off[i]:.3g} > tol {tol:g}")
    expected, _, _ = ref.update_strengths(np.asarray(w_curr) - np.asarray(w_prev), r_prev)
    if not _close(r_curr, expected):
        problems.append("tune: r_curr is not the reference update of the tuned matrix")
    return problems


def check_simulate(scenario, trace_text):
    """Every step follows from the program's own previous two steps by
    the reference rule.  Each step is checked on its own, so rounding
    cannot compound."""
    w0, w1, r1 = (np.array(scenario[k], dtype=float) for k in ("w0", "w1", "r1"))
    horizon = scenario["horizon"]
    utility = (
        ref.min_norm_utility(r1, w1) if scenario["u"] == "calibrate" else np.array(scenario["u"], dtype=float)
    )
    t, w, r, branches = read_trace(trace_text)
    n = len(w0)
    if not np.array_equal(t, np.arange(2, horizon + 2)) or w.shape != (horizon, n) or r.shape != (horizon, n, n):
        return [f"simulate: trace shape or timestamps wrong (t={t[:3]}..., W {w.shape}, R {r.shape})"]
    emphasis = np.zeros((horizon, n))
    for step, values in scenario.get("policy", {}).items():
        emphasis[int(step) - 1] = values
    w_all = np.concatenate([[w0, w1], w])
    r_ref, codes, degenerate = ref.update_strengths(w_all[1:-1] - w_all[:-2], np.concatenate([[r1], r[:-1]]))
    problems = []
    if not np.all(np.diagonal(r, axis1=1, axis2=2) == 1.0):
        problems.append("simulate: a strength diagonal is not 1")
    if np.any(r < 0.0) or np.any(r > 1.0) or np.any(w < 0.0) or np.any(w > 1.0):
        problems.append("simulate: an entry or a performance value leaves [0, 1]")
    for k in np.flatnonzero(~np.isclose(r, r_ref, rtol=RTOL, atol=ATOL).all(axis=(1, 2)))[:3]:
        problems.append(f"simulate: strengths at t={t[k]} differ from the reference update")
    w_ref = ref.aggregate(r, utility, emphasis)
    for k in np.flatnonzero(~np.isclose(w, w_ref, rtol=RTOL, atol=ATOL).all(axis=1))[:3]:
        problems.append(f"simulate: performance at t={t[k]} differs from the reference aggregate")
    if branches is not None:
        counts = ref.branch_counts(codes, degenerate)
        for k in np.flatnonzero((branches != counts).any(axis=1))[:3]:
            problems.append(f"simulate: branch counts at t={t[k]} are {branches[k].tolist()}, "
                            f"expected {counts[k].tolist()}")
        for k in np.flatnonzero(branches[:, :3].sum(axis=1) != n * (n - 1))[:3]:
            problems.append(f"simulate: branch counts at t={t[k]} do not sum to n(n-1)")
    return problems


LOADING_TOL = 1e-6
GAP_FLOOR = 1e-4  # below this relative eigen-gap the first component is not determined


def check_rank(strengths, design, ranking_text):
    """Explained-variance ratios agree with the eigh-based PCA; the order
    agrees with the reference loadings wherever they differ by more than
    ``LOADING_TOL``."""
    order, loadings, ratios = read_ranking(ranking_text)
    n = np.asarray(strengths).shape[1]
    magnitudes, ref_ratios, gap = ref.influence(strengths, design)
    problems = []
    if not _close(ratios, ref_ratios, rtol=0.0, atol=1e-9):
        problems.append("rank: explained-variance ratios differ from the eigh-based PCA")
    if sorted(order.tolist()) != list(range(n)) or len(loadings) != n:
        return problems + ["rank: order is not a permutation of the subsystems"]
    if gap > GAP_FLOOR:
        if not _close(loadings, magnitudes[order], rtol=0.0, atol=LOADING_TOL):
            problems.append("rank: loadings differ from the reference first component")
        ranked = magnitudes[order]
        for k in np.flatnonzero(ranked[1:] > ranked[:-1] + LOADING_TOL):
            problems.append(f"rank: S{order[k] + 1} ranked above S{order[k + 1] + 1} with a smaller loading")
    return problems


def check_qc(t, performance, ihdi, qc_text, stderr, slope_eps=1e-3):
    """Each value is ``mean / IHDI``; slope, trend class and
    satisfiability match the reference least-squares fit."""
    qt, mean_w, q_ihdi, qc = read_qc(qc_text)
    expected = ref.quality(performance, ihdi)
    problems = []
    if not (np.array_equal(qt, t) and _close(q_ihdi, ihdi, rtol=0.0, atol=0.0)):
        return ["qc: timestamps or IHDI column differ from the series"]
    if not _close(mean_w, np.asarray(performance).mean(axis=1)) or not _close(qc, expected):
        problems.append("qc: a value differs from mean / IHDI")
    notes = read_qc_notes(stderr)
    slope, cls, satisfiable = ref.trend_fit(t, expected, slope_eps)
    if notes is None:
        return problems + ["qc: no trend note on stderr"]
    if abs(notes[1] - slope) > 1e-5 * abs(slope) + 1e-12:
        problems.append(f"qc: slope {notes[1]!r} differs from the reference {slope!r}")
    on_edge = abs(abs(slope) - slope_eps) <= 1e-9
    if not on_edge and (notes[0], notes[2]) != (cls, satisfiable):
        problems.append(f"qc: trend {notes[0]}/{notes[2]} differs from the reference {cls}/{satisfiable}")
    return problems


def check_output(workload, case, cmd, text, stderr):
    """Check one command's output ``text`` (and its stderr notes) for one
    case of a workload."""
    t, s, ihdi = case.series
    if cmd == "calibrate":
        return check_calibrate(case.strengths, s[0], text)
    if cmd == "tune":
        return check_tune(s[0], s[1], case.utility, workload.tune_tol, text)
    if cmd == "simulate":
        return check_simulate(case.scenario, text)
    if cmd == "rank":
        return check_rank(case.trace, workload.design, text)
    return check_qc(t, s, ihdi, text, stderr)
