"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module attributes that callers look up
(for example ``crossimpact.cli.simulate`` and ``crossimpact.model.update_matrix``)
with wrappers that record one span per call: name, start, end, parent and
root.  Spans stay in memory until ``write`` saves them.  ``layer_metrics``
turns the spans of the traced rounds into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name).  The ``crossimpact.cli`` bindings are the
# ones the commands call; the others are looked up inside their own module.
WRAPPED = (
    ("crossimpact.cli", "build_parser", "cli.build_parser"),
    ("crossimpact.cli", "parse_scenario", "scenario_io.parse_scenario"),
    ("crossimpact.cli", "write_trace", "scenario_io.write_trace"),
    ("crossimpact.cli", "parse_trace", "scenario_io.parse_trace"),
    ("crossimpact.cli", "parse_series", "scenario_io.parse_series"),
    ("crossimpact.cli", "parse_matrix", "scenario_io.parse_matrix"),
    ("crossimpact.cli", "simulate", "model.simulate"),
    ("crossimpact.cli", "solve_utility_min_norm", "calibration.solve_utility_min_norm"),
    ("crossimpact.cli", "tune_initial_r", "calibration.tune_initial_r"),
    ("crossimpact.cli", "influence_ranking", "analysis.influence_ranking"),
    ("crossimpact.cli", "quality_coefficient", "analysis.quality_coefficient"),
    ("crossimpact.cli", "trend", "analysis.trend"),
    ("crossimpact.scenario_io.Scenario", "validate", "scenario_io.validate"),
    ("crossimpact.model", "step", "model.step"),
    ("crossimpact.model", "update_matrix", "model.update_matrix"),
    ("crossimpact.model", "compute_weights", "model.compute_weights"),
    ("crossimpact.analysis", "observation_matrix", "analysis.observation_matrix"),
    ("crossimpact.analysis", "jacobi_eigendecomposition", "analysis.jacobi_eigendecomposition"),
)

# Layers timed per call; every other layer is timed per command call.
PER_STEP = ("model.update_matrix", "model.compute_weights", "model.step")

COUNTS = (
    "model.cells_updated", "model.branch_one_zero", "model.branch_equal",
    "model.branch_ratio", "model.branch_degenerate",
    "calibration.policy_evals", "calibration.tune_sweeps", "scenario_io.trace_bytes",
)


def _resolve(path):
    """The module or class named by ``path``, or None if it is gone."""
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Records spans ``(id, parent, root, name, start, end)`` and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._ids = itertools.count()
        self._saved = []
        self.missing = []

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    def install(self):
        """Wrap every function in ``WRAPPED`` that exists; the rest are
        recorded as missing, and their metrics come out absent."""
        from crossimpact.calibration import PolicyFunction

        after = {
            "model.update_matrix": self._count_branches,
            "scenario_io.write_trace": lambda text: self._add("scenario_io.trace_bytes", len(text.encode())),
            "calibration.tune_initial_r": lambda out: self._add("calibration.tune_sweeps", sum(out[2].sweeps)),
        }
        for owner_path, attr, name in WRAPPED:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, fn))
            wrapped = self._wrap(fn, name, after.get(name))
            if name == "calibration.tune_initial_r":
                wrapped = self._counting_policy(wrapped, PolicyFunction)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _add(self, key, value):
        self.counts[key] += value

    def _count_branches(self, out):
        counts = out[1]
        self._add("model.cells_updated", counts.total())
        self._add("model.branch_one_zero", counts.one_zero)
        self._add("model.branch_equal", counts.equal)
        self._add("model.branch_ratio", counts.ratio)
        self._add("model.branch_degenerate", counts.degenerate)

    def _counting_policy(self, tune, policy_type):
        """Hand ``tune_initial_r`` the default forward sum wrapped so that
        it counts its calls."""
        base = policy_type.forward_default()

        def counted(r_row, u_row):
            self.counts["calibration.policy_evals"] += 1
            return base.fn(r_row, u_row)

        policy = policy_type(base.name, counted, base.monotone)

        @functools.wraps(tune)
        def wrapper(*args, **kwargs):
            if len(args) < 4 and kwargs.get("policy") is None:
                kwargs["policy"] = policy
            return tune(*args, **kwargs)

        return wrapper

    def write(self, path):
        names = sorted({s[3] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "names": names,
            "spans": [[i, p, r, index[n], a, b] for i, p, r, n, a, b in self.spans],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "id", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.id = next(self.tracer._ids)
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        stack = self.tracer._stack
        stack.pop()
        parent = stack[-1].id if stack else None
        root = stack[0].id if stack else self.id
        self.tracer.spans.append((self.id, parent, root, self.name, self.start, end))
        return False


def layer_metrics(tracer, rounds):
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    A layer ``_s`` metric is the median, over command calls, of the time
    spent in that layer during the call; the ``PER_STEP`` layers are the
    median of single calls.  ``cli.<command>.self_s`` is the part of a
    command call that no child span covers; a root span that is not a
    command call (the benchmark's own ``calibration.verify_min_norm``)
    gives ``<name>_s``.  Counts are per round.  A layer with no spans is
    absent from the result, not zero.
    """
    by_root = defaultdict(lambda: defaultdict(float))
    per_call = defaultdict(list)
    child_time = defaultdict(float)
    roots = {}
    for sid, parent, root, name, start, end in tracer.spans:
        d = end - start
        if parent is None:
            roots[sid] = (name, d)
            continue
        by_root[root][name] += d
        per_call[name].append(d)
        if parent == root:
            child_time[root] += d
    layer_calls = defaultdict(list)
    for root, layers in by_root.items():
        for name, d in layers.items():
            layer_calls[name].append(d)
    metrics = {}
    for name, values in layer_calls.items():
        source = per_call[name] if name in PER_STEP else values
        metrics[f"{name}_s"] = (statistics.median(source), "s")
    self_times = defaultdict(list)
    for sid, (name, d) in roots.items():
        self_times[name].append(d - child_time[sid])
    for name, values in self_times.items():
        key = f"{name}.self_s" if name.startswith("cli.") else f"{name}_s"
        metrics[key] = (statistics.median(values), "s")
    if per_call["model.update_matrix"] and tracer.counts["model.cells_updated"]:
        metrics["model.cells_per_s"] = (
            tracer.counts["model.cells_updated"] / sum(per_call["model.update_matrix"]), "cells/s"
        )
    for key in COUNTS:
        if key in tracer.counts:
            total = tracer.counts[key]
            if total % rounds:
                raise RuntimeError(f"{key} = {total} is not the same in each of {rounds} rounds")
            metrics[key] = (total // rounds, "B" if key.endswith("_bytes") else "count")
    return metrics
