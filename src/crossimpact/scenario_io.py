"""Scenario documents, observation tables and trace serialization.

Formats are deliberately plain so any plotting or scripting tool can
consume them:

* scenario — a JSON object (keys: ``subsystems``, ``w0``, ``w1``, ``r1``,
  ``u`` or ``"calibrate"``, ``policy``, ``options``, ``horizon``);
* series — CSV with header ``t,S1,...,Sn[,IHDI]``;
* trace — CSV with header ``t,W1..Wn,R11..Rnn`` (row-major strengths) or
  a self-describing JSON document that also carries branch diagnostics.

Every number is rendered with 17 significant digits, so written values
parse back to the exact same binary64 and round trips are lossless.
Scenario validation collects all violations before reporting, so authors
can fix a document in one pass.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analysis import InfluenceRanking, QualityPoint
from .calibration import CalibrationReport, solve_utility_min_norm
from .errors import DomainError, InputError, ParseError, ShapeError, ValidationError
from .model import (
    BranchCounts,
    DEFAULT_SUBSYSTEM_NAMES,
    InfluenceMatrix,
    ModelOptions,
    PerformanceVector,
    PolicyIntervention,
    SimulationTrace,
    SubsystemSet,
    TraceStep,
    UtilityMatrix,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one simulation run needs: seed state, fixed weights (or
    a directive to calibrate them from the seed), policy schedule and
    numeric options.

    Policy schedule keys are 1-based step ordinals: the intervention
    under key s is added to the performance vector produced by step s
    (which carries timestamp s + 1).
    """

    subsystems: SubsystemSet
    w0: PerformanceVector
    w1: PerformanceVector
    r1: InfluenceMatrix
    utility: UtilityMatrix | None = None  # None means calibrate from the seed
    policy: dict[int, PolicyIntervention] = field(default_factory=dict)
    options: ModelOptions = ModelOptions()
    horizon: int = 10

    def __post_init__(self):
        object.__setattr__(self, "policy", dict(self.policy))
        object.__setattr__(self, "horizon", int(self.horizon))

    @property
    def size(self) -> int:
        return self.subsystems.size

    def resolved_utility(self) -> UtilityMatrix:
        if self.utility is not None:
            return self.utility
        solved, _ = solve_utility_min_norm(self.r1, self.w1)
        return solved

    def validate(self, horizon: int | None = None) -> list[str]:
        """Collect every violation instead of failing on the first."""
        horizon = self.horizon if horizon is None else int(horizon)
        out: list[str] = []
        n = self.subsystems.size
        for name, got in (("w0", self.w0.size), ("w1", self.w1.size), ("r1", self.r1.size)):
            if got != n:
                out.append(f"{name} has size {got}, expected {n} (one per subsystem)")
        if self.utility is not None and self.utility.size != n:
            out.append(f"u has size {self.utility.size}, expected {n}")
        if self.w0.timestamp != 0 or self.w1.timestamp != 1:
            out.append(
                "seed vectors must carry timestamps 0 and 1, got "
                f"{self.w0.timestamp} and {self.w1.timestamp}"
            )
        if self.r1.timestamp != 1:
            out.append(f"r1 must carry timestamp 1, got {self.r1.timestamp}")
        if self.options.normalize_w:
            for name, vec in (("w0", self.w0), ("w1", self.w1)):
                for k, v in enumerate(vec.values):
                    if not (0.0 <= v <= 1.0):
                        out.append(f"{name}[{k}] = {v!r} outside [0, 1]")
        if self.options.clamp and self.r1.size == n:
            for i in range(n):
                for j in range(n):
                    if self.r1.entries[i, j] > 1.0:
                        out.append(f"r1[{i}][{j}] = {self.r1.entries[i, j]!r} outside [0, 1]")
        if horizon < 1:
            out.append(f"horizon must be >= 1, got {horizon}")
        for step_key in sorted(self.policy):
            intervention = self.policy[step_key]
            if step_key < 1 or step_key > horizon:
                out.append(f"policy step {step_key} outside the horizon 1..{horizon}")
            if intervention.emphasis.shape[0] != n:
                out.append(
                    f"policy step {step_key} emphasis has size "
                    f"{intervention.emphasis.shape[0]}, expected {n}"
                )
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.subsystems == other.subsystems
            and self.w0 == other.w0
            and self.w1 == other.w1
            and self.r1 == other.r1
            and self.utility == other.utility
            and self.policy == other.policy
            and self.options == other.options
            and self.horizon == other.horizon
        )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_vector(doc: dict, key: str, size: int | None, out: list[str]) -> list[float] | None:
    raw = doc[key]
    if not isinstance(raw, list):
        out.append(f"{key} must be an array of numbers")
        return None
    bad = False
    for k, v in enumerate(raw):
        if not _is_number(v) or not math.isfinite(v):
            out.append(f"{key}[{k}] must be a finite number, got {v!r}")
            bad = True
    if bad:
        return None
    if size is not None and len(raw) != size:
        out.append(f"{key} has length {len(raw)}, expected {size}")
        return None
    return [float(v) for v in raw]


def _check_matrix(doc_value, key: str, size: int, out: list[str]) -> list[list[float]] | None:
    if not isinstance(doc_value, list) or len(doc_value) != size:
        out.append(f"{key} must be a {size}x{size} array of arrays")
        return None
    rows: list[list[float]] = []
    bad = False
    for i, row in enumerate(doc_value):
        if not isinstance(row, list) or len(row) != size:
            out.append(f"{key}[{i}] must be an array of {size} numbers")
            bad = True
            continue
        for j, v in enumerate(row):
            if not _is_number(v) or not math.isfinite(v):
                out.append(f"{key}[{i}][{j}] must be a finite number, got {v!r}")
                bad = True
        if not bad:
            rows.append([float(v) for v in row])
    return None if bad else rows


_SCENARIO_KEYS = {"subsystems", "w0", "w1", "r1", "u", "policy", "options", "horizon"}
_OPTION_KEYS = {"clamp", "eps_delta", "normalize_w"}


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ParseError with line/column on malformed JSON, and
    ValidationError carrying the complete list of semantic violations
    otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"scenario syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")

    out: list[str] = []
    for key in doc:
        if key not in _SCENARIO_KEYS:
            out.append(f"unknown key {key!r}")

    names = DEFAULT_SUBSYSTEM_NAMES
    if "subsystems" in doc:
        raw_names = doc["subsystems"]
        if (
            not isinstance(raw_names, list)
            or len(raw_names) < 2
            or any(not isinstance(s, str) or not s for s in raw_names)
            or len(set(raw_names)) != len(raw_names)
        ):
            out.append("subsystems must be an array of at least 2 unique non-empty strings")
        else:
            names = tuple(raw_names)
    n = len(names)

    missing = [k for k in ("w0", "w1") if k not in doc]
    if missing:
        out.append(
            f"missing {' and '.join(missing)}: the relationship-strength update "
            "consumes two consecutive performance snapshots, so a scenario must "
            "seed both w0 and w1"
        )
    if "r1" not in doc:
        out.append("missing r1: a scenario must seed the influence matrix")

    # options first; range checks depend on them
    clamp, eps_delta, normalize_w = True, 1e-9, True
    if "options" in doc:
        raw_opts = doc["options"]
        if not isinstance(raw_opts, dict):
            out.append("options must be an object")
        else:
            for key in raw_opts:
                if key not in _OPTION_KEYS:
                    out.append(f"unknown options key {key!r}")
            if "clamp" in raw_opts:
                if not isinstance(raw_opts["clamp"], bool):
                    out.append("options.clamp must be a boolean")
                else:
                    clamp = raw_opts["clamp"]
            if "normalize_w" in raw_opts:
                if not isinstance(raw_opts["normalize_w"], bool):
                    out.append("options.normalize_w must be a boolean")
                else:
                    normalize_w = raw_opts["normalize_w"]
            if "eps_delta" in raw_opts:
                v = raw_opts["eps_delta"]
                if not _is_number(v) or not math.isfinite(v) or v <= 0.0:
                    out.append(f"options.eps_delta must be a positive finite number, got {v!r}")
                else:
                    eps_delta = float(v)

    w0 = _check_vector(doc, "w0", n, out) if "w0" in doc else None
    w1 = _check_vector(doc, "w1", n, out) if "w1" in doc else None
    if normalize_w:
        for key, vec in (("w0", w0), ("w1", w1)):
            for k, v in enumerate(vec or ()):
                if not (0.0 <= v <= 1.0):
                    out.append(f"{key}[{k}] = {v!r} outside [0, 1]")

    r1 = _check_matrix(doc["r1"], "r1", n, out) if "r1" in doc else None
    if r1 is not None:
        for i in range(n):
            for j in range(n):
                v = r1[i][j]
                if i == j and v != 1.0:
                    out.append(f"r1[{i}][{j}] = {v!r} but the diagonal must be exactly 1")
                elif v < 0.0:
                    out.append(f"r1[{i}][{j}] = {v!r} is negative")
                elif clamp and v > 1.0:
                    out.append(f"r1[{i}][{j}] = {v!r} outside [0, 1]")

    utility_rows = None
    calibrate = True
    if "u" in doc:
        raw_u = doc["u"]
        if raw_u == "calibrate":
            pass
        elif isinstance(raw_u, str):
            out.append(f"u must be a matrix or the string \"calibrate\", got {raw_u!r}")
        else:
            utility_rows = _check_matrix(raw_u, "u", n, out)
            calibrate = False

    horizon = 10
    if "horizon" in doc:
        raw_h = doc["horizon"]
        if not isinstance(raw_h, int) or isinstance(raw_h, bool) or raw_h < 1:
            out.append(f"horizon must be an integer >= 1, got {raw_h!r}")
        else:
            horizon = raw_h

    policy: dict[int, PolicyIntervention] = {}
    if "policy" in doc:
        raw_policy = doc["policy"]
        if not isinstance(raw_policy, dict):
            out.append("policy must be an object mapping step -> emphasis array")
        else:
            for raw_key in sorted(raw_policy):
                try:
                    step_key = int(raw_key)
                except (TypeError, ValueError):
                    out.append(f"policy step {raw_key!r} is not an integer")
                    continue
                if step_key < 1 or step_key > horizon:
                    out.append(f"policy step {step_key} outside the horizon 1..{horizon}")
                    continue
                shim = {"emphasis": raw_policy[raw_key]}
                emphasis = _check_vector(shim, "emphasis", n, out)
                if emphasis is None:
                    out.append(f"policy step {step_key} must map to an array of {n} finite numbers")
                    continue
                policy[step_key] = PolicyIntervention(emphasis, step_key)

    if out:
        raise ValidationError(out)

    return Scenario(
        subsystems=SubsystemSet(names),
        w0=PerformanceVector(w0, 0),
        w1=PerformanceVector(w1, 1),
        r1=InfluenceMatrix(r1, 1),
        utility=None if calibrate else UtilityMatrix(utility_rows),
        policy=policy,
        options=ModelOptions(clamp=clamp, eps_delta=eps_delta, normalize_w=normalize_w),
        horizon=horizon,
    )


def write_scenario(scenario: Scenario) -> str:
    doc = {
        "subsystems": list(scenario.subsystems.names),
        "w0": list(scenario.w0.values),
        "w1": list(scenario.w1.values),
        "r1": [list(row) for row in scenario.r1.entries],
        "u": "calibrate" if scenario.utility is None else [list(r) for r in scenario.utility.entries],
        "policy": {str(k): list(scenario.policy[k].emphasis) for k in sorted(scenario.policy)},
        "options": {
            "clamp": scenario.options.clamp,
            "eps_delta": scenario.options.eps_delta,
            "normalize_w": scenario.options.normalize_w,
        },
        "horizon": scenario.horizon,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Series tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeriesTable:
    """Observed performance metrics over time, optionally with the
    composite index column needed for quality audits."""

    timestamps: tuple[int, ...]
    values: np.ndarray  # one row per timestamp, one column per subsystem
    ihdi: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(int(t) for t in self.timestamps))
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.ihdi is not None:
            ihdi = np.array(self.ihdi, dtype=float)
            ihdi.setflags(write=False)
            object.__setattr__(self, "ihdi", ihdi)
        if values.ndim != 2:
            raise ShapeError(f"series values must be 2-dimensional, got shape {values.shape}")
        if len(self.timestamps) != values.shape[0]:
            raise ShapeError("series needs one timestamp per row")
        if not np.all(np.isfinite(values)):
            raise ParseError("series values must all be finite")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise ParseError(f"series timestamps must be strictly increasing, got {a} then {b}")
        if self.ihdi is not None:
            if self.ihdi.shape[0] != values.shape[0]:
                raise ShapeError("series needs one IHDI value per row when the column is present")
            if not np.all(np.isfinite(self.ihdi)) or np.any(self.ihdi <= 0.0) or np.any(self.ihdi > 1.0):
                raise ParseError("IHDI values must lie in (0, 1]")

    @property
    def size(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.timestamps)

    def performance_at(self, row: int) -> PerformanceVector:
        return PerformanceVector(self.values[row], self.timestamps[row])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesTable):
            return NotImplemented
        if self.timestamps != other.timestamps or not np.array_equal(self.values, other.values):
            return False
        if (self.ihdi is None) != (other.ihdi is None):
            return False
        return self.ihdi is None or np.array_equal(self.ihdi, other.ihdi)


def _split_rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


def parse_series(text: str, normalized: bool = True) -> SeriesTable:
    """Parse a ``t,S1,...,Sn[,IHDI]`` table.  When ``normalized`` the
    performance cells must lie in [0, 1]."""
    lines = _split_rows(text)
    if not lines:
        raise ParseError("series is empty: expected a header t,S1,...,Sn[,IHDI]")
    header = [h.strip() for h in lines[0].split(",")]
    has_ihdi = bool(header) and header[-1] == "IHDI"
    subsystem_headers = header[1:-1] if has_ihdi else header[1:]
    expected = [f"S{k + 1}" for k in range(len(subsystem_headers))]
    if not header or header[0] != "t" or subsystem_headers != expected or not subsystem_headers:
        raise ParseError(
            "missing or malformed header: expected t,S1,...,Sn with an optional "
            f"trailing IHDI column, got {lines[0]!r}"
        )
    n = len(subsystem_headers)
    timestamps: list[int] = []
    rows: list[list[float]] = []
    ihdi: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            t = int(cells[0])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric cell {cells[0]!r} in column t") from None
        if timestamps and t <= timestamps[-1]:
            raise ParseError(
                f"line {lineno}: non-monotone t ({timestamps[-1]} then {t}); "
                "timestamps must strictly increase"
            )
        values = []
        for k, cell in enumerate(cells[1 : n + 1]):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric cell {cell!r} in column S{k + 1}") from None
            if not math.isfinite(v):
                raise ParseError(f"line {lineno}: non-finite value in column S{k + 1}")
            if normalized and not (0.0 <= v <= 1.0):
                raise ParseError(f"line {lineno}: S{k + 1} = {cell} outside [0, 1]")
            values.append(v)
        if has_ihdi:
            cell = cells[-1]
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric cell {cell!r} in column IHDI") from None
            if not math.isfinite(v) or not (0.0 < v <= 1.0):
                raise ParseError(f"line {lineno}: IHDI = {cell} outside (0, 1]")
            ihdi.append(v)
        timestamps.append(t)
        rows.append(values)
    if not rows:
        raise ParseError("series has a header but no data rows")
    return SeriesTable(
        tuple(timestamps),
        np.array(rows, dtype=float),
        np.array(ihdi, dtype=float) if has_ihdi else None,
    )


def write_series(table: SeriesTable) -> str:
    n = table.size
    header = "t," + ",".join(f"S{k + 1}" for k in range(n))
    if table.ihdi is not None:
        header += ",IHDI"
    lines = [header]
    for row, t in enumerate(table.timestamps):
        cells = [str(t)] + [_fmt(v) for v in table.values[row]]
        if table.ihdi is not None:
            cells.append(_fmt(table.ihdi[row]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def write_matrix(entries: np.ndarray) -> str:
    entries = np.asarray(entries, dtype=float)
    n = entries.shape[1]
    lines = [",".join(f"S{k + 1}" for k in range(n))]
    for row in entries:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = _split_rows(text)
    if not lines:
        raise ParseError("matrix is empty: expected a header S1,...,Sn")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"S{k + 1}" for k in range(len(header))]
    if header != expected:
        raise ParseError(f"missing or malformed matrix header, got {lines[0]!r}")
    n = len(header)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != n:
            raise ParseError(f"line {lineno}: expected {n} cells, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric cell") from None
    if len(rows) != n:
        raise ParseError(f"matrix must be square: header names {n} columns but found {len(rows)} rows")
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def write_trace(trace: SimulationTrace, format: str = "table") -> str:
    """Render a trace.  The table format is one CSV row per step (no
    diagnostics columns); the structured format is a self-describing JSON
    document that also carries per-branch update counts."""
    n = trace.size
    if format == "table":
        header = (
            "t,"
            + ",".join(f"W{k + 1}" for k in range(n))
            + ","
            + ",".join(f"R{i + 1}{j + 1}" for i in range(n) for j in range(n))
        )
        lines = [header]
        for s in trace.steps:
            cells = [str(s.timestamp)]
            cells += [_fmt(v) for v in s.performance.values]
            cells += [_fmt(v) for v in s.influence.entries.ravel()]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if format == "structured":
        doc = {
            "kind": "trace",
            "size": n,
            "steps": [
                {
                    "t": s.timestamp,
                    "w": s.performance.values.tolist(),
                    "r": s.influence.entries.tolist(),
                    "branches": asdict(s.branches),
                }
                for s in trace.steps
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise InputError(f"unknown trace format {format!r} (expected 'table' or 'structured')")


def parse_trace(text: str) -> SimulationTrace:
    """Read back either trace format (sniffed from the first character).
    Table-format traces carry no diagnostics; their branch counts read
    back as zeros."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_trace_structured(stripped)
    return _parse_trace_table(text)


def _integral(value, what: str) -> int:
    """A JSON integer, or a float with an integral value such as 2.0."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _parse_trace_structured(text: str) -> SimulationTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"trace syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict) or doc.get("kind") != "trace":
        raise ParseError("structured trace must be an object with kind == 'trace'")
    step_docs = doc.get("steps", [])
    if not isinstance(step_docs, list):
        raise ParseError("trace 'steps' must be a list")
    steps = []
    for k, s in enumerate(step_docs):
        if not isinstance(s, dict):
            raise ParseError(f"trace steps[{k}] must be an object")
        branches = s.get("branches", {})
        if not isinstance(branches, dict):
            raise ParseError(f"trace steps[{k}]: 'branches' must be an object")
        try:
            t = _integral(s["t"], f"trace steps[{k}]: 't'")
            counts = BranchCounts(*(
                _integral(branches.get(f.name, 0), f"trace steps[{k}]: branch count {f.name!r}")
                for f in fields(BranchCounts)
            ))
            steps.append(TraceStep(t, PerformanceVector(s["w"], t), InfluenceMatrix(s["r"], t), counts))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"trace steps[{k}]: missing or malformed field {e!r}") from e
    if not steps:
        raise ParseError("trace document has no steps")
    return SimulationTrace(tuple(steps))


def _parse_trace_table(text: str) -> SimulationTrace:
    lines = _split_rows(text)
    if not lines:
        raise ParseError("trace is empty: expected a header t,W1..Wn,R11..Rnn")
    header = [h.strip() for h in lines[0].split(",")]
    n = sum(1 for h in header if h.startswith("W"))
    expected = (
        ["t"]
        + [f"W{k + 1}" for k in range(n)]
        + [f"R{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    )
    if n < 2 or header != expected:
        raise ParseError(f"missing or malformed trace header, got {lines[0]!r}")
    steps = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            t = int(cells[0])
            w = [float(c) for c in cells[1 : n + 1]]
            r = np.array([float(c) for c in cells[n + 1 :]], dtype=float).reshape(n, n)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric cell") from None
        steps.append(TraceStep(t, PerformanceVector(w, t), InfluenceMatrix(r, t), BranchCounts()))
    if not steps:
        raise ParseError("trace has a header but no data rows")
    return SimulationTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Quality table, ranking and tune documents (CLI machine output)
# ---------------------------------------------------------------------------

def write_qc_table(points: list[QualityPoint]) -> str:
    lines = ["t,MEAN_W,IHDI,QC"]
    for p in points:
        lines.append(f"{p.timestamp},{_fmt(p.mean_w)},{_fmt(p.ihdi)},{_fmt(p.qc)}")
    return "\n".join(lines) + "\n"


def parse_qc_table(text: str) -> list[QualityPoint]:
    lines = _split_rows(text)
    if not lines or lines[0] != "t,MEAN_W,IHDI,QC":
        raise ParseError("missing or malformed quality table header")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            raise ParseError(f"line {lineno}: expected 4 cells, got {len(cells)}")
        try:
            points.append(
                QualityPoint(int(cells[0]), float(cells[2]), float(cells[1]), float(cells[3]))
            )
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric cell") from None
    return points


def write_ranking(ranking: InfluenceRanking) -> str:
    doc = {
        "kind": "ranking",
        "design": ranking.design,
        "order": [f"S{k + 1}" for k in ranking.order],
        "loadings": list(ranking.loadings),
        "explained_variance_ratios": list(ranking.explained_variance),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_ranking(text: str) -> InfluenceRanking:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"ranking syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict) or doc.get("kind") != "ranking":
        raise ParseError("ranking document must be an object with kind == 'ranking'")
    try:
        labels = [re.fullmatch(r"S([1-9][0-9]*)", label) for label in doc["order"]]
        if not all(labels):
            raise ValueError(f"order labels must be S<k> with k >= 1, got {doc['order']}")
        return InfluenceRanking(
            design=doc["design"],
            order=tuple(int(m.group(1)) - 1 for m in labels),
            loadings=tuple(float(v) for v in doc["loadings"]),
            explained_variance=tuple(float(v) for v in doc["explained_variance_ratios"]),
        )
    except (KeyError, TypeError, ValueError, DomainError) as e:
        raise ParseError(f"malformed ranking document: {e}") from e


@dataclass(frozen=True)
class TuneResult:
    """Tuned seed matrix, its one-step advance, and the calibration report."""

    r_prev: InfluenceMatrix
    r_curr: InfluenceMatrix
    report: CalibrationReport


def write_tune_result(result: TuneResult) -> str:
    doc = {
        "kind": "tune",
        "t_prev": result.r_prev.timestamp,
        "t_curr": result.r_curr.timestamp,
        "r_prev": [list(row) for row in result.r_prev.entries],
        "r_curr": [list(row) for row in result.r_curr.entries],
        "report": {
            "tol": result.report.tol,
            "residuals": list(result.report.residuals),
            "sweeps": list(result.report.sweeps),
            "converged": list(result.report.converged),
            "notes": list(result.report.notes),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_tune_result(text: str) -> TuneResult:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"tune syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict) or doc.get("kind") != "tune":
        raise ParseError("tune document must be an object with kind == 'tune'")
    try:
        report = CalibrationReport(
            tol=float(doc["report"]["tol"]),
            residuals=tuple(doc["report"]["residuals"]),
            sweeps=tuple(doc["report"]["sweeps"]),
            notes=tuple(doc["report"]["notes"]),
        )
        return TuneResult(
            InfluenceMatrix(doc["r_prev"], int(doc["t_prev"])),
            InfluenceMatrix(doc["r_curr"], int(doc["t_curr"])),
            report,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed tune document: {e}") from e
