"""Scenario documents, observation tables and trace serialization.

Formats are deliberately plain so any plotting or scripting tool can
consume them:

* scenario — a JSON object (keys: ``subsystems``, ``w0``, ``w1``, ``r1``,
  ``u`` or ``"calibrate"``, ``policy``, ``options``, ``horizon``);
* series, matrix and quality table — CSV with headers ``t,S1,...,Sn[,IHDI]``,
  ``S1,...,Sn`` and ``t,MEAN_W,IHDI,QC``;
* trace — CSV with header ``t,W1..Wn,R11..Rnn`` (row-major strengths) or
  a self-describing JSON document that also carries branch diagnostics.

One reader serves every CSV table: only ``\n`` ends a line, blank lines
are skipped but counted, cells are finite ASCII decimal numbers (no
``_``), ``t`` is an integer, and each rejection is a ParseError naming
the physical line.  CSV cells carry 17 significant digits; JSON documents
carry the shortest ``repr`` that reads back as the same float, as
``json.dumps`` writes it.  Either way round trips are lossless.  Scenario
validation collects all violations before reporting, so authors can fix
a document in one pass.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import string
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import repeat

import numpy as np

from .analysis import InfluenceRanking, QualityPoint
from .calibration import CalibrationReport, solve_utility_min_norm
from .errors import DomainError, InputError, ParseError, ShapeError, ValidationError
from .model import (
    BRANCH_FIELDS,
    InfluenceMatrix,
    ModelOptions,
    PerformanceVector,
    PolicyIntervention,
    SimulationTrace,
    SubsystemSet,
    UtilityMatrix,
    _fields_equal,
    _frozen_array,
    stack_steps,
    strength_rules,
    trace_rules,
)


def _csv(header: list[str], rows: list[list[float]], timestamps=None) -> str:
    """A CSV table: the header, then one line per row of plain floats with
    17 significant digits, enough for any binary64 to read back unchanged,
    each after its integer timestamp when ``timestamps`` is given.  Each
    line is one ``%`` operation; ``"%.17g" % x`` is ``format(x, ".17g")``."""
    cells = ",".join(["%.17g"] * (len(header) - (timestamps is not None)))
    if timestamps is None:
        lines = [cells % tuple(row) for row in rows]
    else:
        line = "%d," + cells
        lines = [line % (t, *row) for t, row in zip(timestamps, rows)]
    return "\n".join([",".join(header), *lines]) + "\n"


def _dumps(obj, newline: str = "\n") -> str:
    """Exactly ``json.dumps(obj, indent=2)``, whose indent makes the stdlib
    fall back to its pure-Python encoder.  A list of floats is joined in
    one pass with ``float.__repr__`` (the stdlib's own float format); NaN
    and infinities go item by item so they are spelled as the stdlib
    spells them.  Every other leaf, and every key, goes through
    ``json.dumps``.  ``newline`` is the line break plus the current indent."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {key!r}")
            items.append(f"{json.dumps(key)}: {_dumps(value, inner)}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if all(map(isinstance, obj, repeat(float))):
            text = ("," + inner).join(map(float.__repr__, obj))
            if "n" not in text:  # 'nan' and 'inf' need the stdlib's spelling
                return "[" + inner + text + newline + "]"
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + newline + "]"
    return json.dumps(obj)


def _json_int(digits: str) -> int:
    """Every number read here becomes a binary64, so a JSON integer must
    fit one."""
    try:
        value = int(digits)
        float(value)
    except (ValueError, OverflowError):
        raise ValueError(f"a {len(digits)}-character integer is outside the binary64 range") from None
    return value


def _load_json(text: str, what: str, kind: str | None = None) -> dict:
    """Decode one JSON object document, mapping every decoding failure
    (syntax, oversized integers, nesting too deep) to ParseError.  With
    ``kind``, the object must carry ``"kind": kind``."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise ParseError(f"{what} syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{what} cannot be decoded: {e}") from e
    if kind is None and not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    if kind is not None and (not isinstance(doc, dict) or doc.get("kind") != kind):
        raise ParseError(f"{what} document must be an object with kind == {kind!r}")
    return doc


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

    def validate(self) -> list[str]:
        """Collect every violation instead of failing on the first."""
        out = _scenario_violations(
            self.size,
            self.w0.values,
            self.w1.values,
            self.r1.entries,
            None if self.utility is None else self.utility.entries,
            {k: p.emphasis for k, p in self.policy.items()},
            self.options,
            self.horizon,
        )
        if self.w0.timestamp != 0 or self.w1.timestamp != 1:
            out.append(
                "seed vectors must carry timestamps 0 and 1, got "
                f"{self.w0.timestamp} and {self.w1.timestamp}"
            )
        if self.r1.timestamp != 1:
            out.append(f"r1 must carry timestamp 1, got {self.r1.timestamp}")
        return out

    __eq__ = _fields_equal


def _scenario_violations(
    n: int,
    w0: np.ndarray | None,
    w1: np.ndarray | None,
    r1: np.ndarray | None,
    u: np.ndarray | None,
    emphases: dict[int, np.ndarray],
    options: ModelOptions,
    horizon: int | None,
) -> list[str]:
    """Every semantic scenario rule, over plain arrays.  None marks a part
    that is absent or already rejected as malformed; its rules are skipped.
    Bad cells are found with masks, so a clean grid costs no Python loop."""
    out: list[str] = []
    for name, vec in (("w0", w0), ("w1", w1)):
        if vec is None:
            continue
        if vec.shape[0] != n:
            out.append(f"{name} has length {vec.shape[0]}, expected {n} (one per subsystem)")
        if options.normalize_w:
            out += _bad_cells(name, vec, (vec < 0.0) | (vec > 1.0), "outside [0, 1]")
    for name, grid in (("r1", r1), ("u", u)):
        if grid is not None and grid.shape != (n, n):
            out.append(f"{name} has shape {grid.shape[0]}x{grid.shape[1]}, expected {n}x{n}")
    if r1 is not None:
        for mask, _, what in strength_rules(r1):
            out += _bad_cells("r1", r1, mask, what)
        if options.clamp:
            out += _bad_cells("r1", r1, ~np.eye(*r1.shape, dtype=bool) & (r1 > 1.0), "outside [0, 1]")
    if horizon is not None and horizon < 1:
        out.append(f"horizon must be >= 1, got {horizon}")
    for step_key in sorted(emphases):
        if horizon is not None and not 1 <= step_key <= horizon:
            out.append(f"policy step {step_key} outside the horizon 1..{horizon}")
        if emphases[step_key].shape[0] != n:
            out.append(
                f"policy step {step_key} emphasis has length "
                f"{emphases[step_key].shape[0]}, expected {n}"
            )
    return out


def _bad_cells(name: str, values: np.ndarray, mask: np.ndarray, what: str) -> list[str]:
    return [
        f"{name}{''.join(f'[{k}]' for k in cell)} = {float(values[cell])!r} {what}"
        for cell in map(tuple, np.argwhere(mask))
    ]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite_array(raw, key: str, ndim: int, out: list[str], finite: bool = True) -> np.ndarray | None:
    """A JSON array (``ndim`` 1) or rectangular array of arrays (``ndim`` 2)
    of numbers, finite unless ``finite`` is false, as a float array.
    Otherwise None, with each fault appended to ``out``.  A number is a
    JSON number: ``"0.5"``, ``true`` and ``null`` are not."""
    rows = raw if ndim == 2 else [raw]
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in rows):
        out.append(f"{key} must be an array of {'arrays of ' * (ndim - 1)}numbers")
        return None
    if len({len(row) for row in rows}) > 1:
        out.append(f"{key} must be rectangular: its rows differ in length")
        return None
    if all(set(map(type, row)) <= {int, float} and (not finite or all(map(math.isfinite, row))) for row in rows):
        grid = np.array(raw, dtype=float)
        return grid if grid.ndim == ndim else grid.reshape(0, 0)  # raw == [] as a matrix
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not _is_number(v) or (finite and not math.isfinite(v)):
                cell = f"[{i}][{j}]" if ndim == 2 else f"[{j}]"
                out.append(f"{key}{cell} must be a {'finite ' * finite}number, got {reprlib.repr(v)}")
    return None


_SCENARIO_KEYS = {"subsystems", "w0", "w1", "r1", "u", "policy", "options", "horizon"}
_OPTION_TYPES = {f.name: type(f.default) for f in fields(ModelOptions)}


def _parse_options(raw, out: list[str]) -> ModelOptions:
    """The document's options over the defaults; ModelOptions checks ranges."""
    options = ModelOptions()
    if not isinstance(raw, dict):
        out.append("options must be an object")
        return options
    for key, value in raw.items():
        kind = _OPTION_TYPES.get(key)
        if kind is None:
            out.append(f"unknown options key {key!r}")
        elif not (isinstance(value, bool) if kind is bool else _is_number(value)):
            wanted = "a boolean" if kind is bool else "a number"
            out.append(f"options.{key} must be {wanted}, got {reprlib.repr(value)}")
        else:
            try:
                options = replace(options, **{key: kind(value)})
            except DomainError as e:
                out.append(f"options.{e}")
    return options


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Raises ParseError with line/column on malformed JSON.  Otherwise this
    checks only the document's structure (JSON types, finite numbers,
    rectangular arrays, unknown and missing keys), leaves the semantic
    rules to the one function that ``Scenario.validate`` also uses, and
    raises ValidationError carrying the complete list of violations.
    """
    doc = _load_json(text, "scenario")
    out = [f"unknown key {key!r}" for key in doc if key not in _SCENARIO_KEYS]

    subsystems = SubsystemSet()
    if "subsystems" in doc:
        raw_names = doc["subsystems"]
        if not isinstance(raw_names, list) or not all(isinstance(s, str) for s in raw_names):
            out.append("subsystems must be an array of strings")
        else:
            try:
                subsystems = SubsystemSet(raw_names)
            except ValidationError as e:
                out += e.violations
    n = subsystems.size

    missing = [k for k in ("w0", "w1") if k not in doc]
    if missing:
        out.append(
            f"missing {' and '.join(missing)}: the relationship-strength update "
            "consumes two consecutive performance snapshots, so a scenario must "
            "seed both w0 and w1"
        )
    if "r1" not in doc:
        out.append("missing r1: a scenario must seed the influence matrix")
    options = _parse_options(doc.get("options", {}), out)
    w0 = _finite_array(doc["w0"], "w0", 1, out) if "w0" in doc else None
    w1 = _finite_array(doc["w1"], "w1", 1, out) if "w1" in doc else None
    r1 = _finite_array(doc["r1"], "r1", 2, out) if "r1" in doc else None

    utility = None
    raw_u = doc.get("u", "calibrate")
    if isinstance(raw_u, str):
        if raw_u != "calibrate":
            out.append(f"u must be a matrix or the string \"calibrate\", got {reprlib.repr(raw_u)}")
    else:
        utility = _finite_array(raw_u, "u", 2, out)

    horizon = doc.get("horizon", Scenario.horizon)
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        out.append(f"horizon must be an integer, got {reprlib.repr(horizon)}")
        horizon = None

    emphases: dict[int, np.ndarray] = {}
    raw_policy = doc.get("policy", {})
    if not isinstance(raw_policy, dict):
        out.append("policy must be an object mapping step -> emphasis array")
        raw_policy = {}
    seen: dict[int, str] = {}
    for raw_key in sorted(raw_policy):
        if not re.fullmatch("[0-9]+", raw_key):
            out.append(f"policy step {reprlib.repr(raw_key)} is not an integer in plain decimal digits")
            continue
        step_key = int(raw_key)
        if step_key in seen:
            out.append(f"policy step {step_key} is given twice, as {seen[step_key]!r} and {raw_key!r}")
            continue
        seen[step_key] = raw_key
        emphasis = _finite_array(raw_policy[raw_key], f"policy step {step_key} emphasis", 1, out)
        if emphasis is not None:
            emphases[step_key] = emphasis

    out += _scenario_violations(n, w0, w1, r1, utility, emphases, options, horizon)
    if out:
        raise ValidationError(out)
    return Scenario(
        subsystems=subsystems,
        w0=PerformanceVector(w0, 0),
        w1=PerformanceVector(w1, 1),
        r1=InfluenceMatrix(r1, 1),
        utility=None if utility is None else UtilityMatrix(utility),
        policy={k: PolicyIntervention(e) for k, e in emphases.items()},
        options=options,
        horizon=horizon,
    )


def write_scenario(scenario: Scenario) -> str:
    doc = {
        "subsystems": list(scenario.subsystems.names),
        "w0": scenario.w0.values.tolist(),
        "w1": scenario.w1.values.tolist(),
        "r1": scenario.r1.entries.tolist(),
        "u": "calibrate" if scenario.utility is None else scenario.utility.entries.tolist(),
        "policy": {str(k): scenario.policy[k].emphasis.tolist() for k in sorted(scenario.policy)},
        "options": asdict(scenario.options),
        "horizon": scenario.horizon,
    }
    return _dumps(doc) + "\n"


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
        values = _frozen_array(self.values, "series values", 2)
        object.__setattr__(self, "values", values)
        if self.ihdi is not None:
            ihdi = np.array(self.ihdi, dtype=float)
            ihdi.setflags(write=False)
            object.__setattr__(self, "ihdi", ihdi)
        if len(self.timestamps) != values.shape[0]:
            raise ShapeError("series needs one timestamp per row")
        if self.ihdi is not None and self.ihdi.shape != (values.shape[0],):
            raise ShapeError("series needs one IHDI value per row when the column is present")
        for _, mask, rule, _ in series_rules(np.asarray(self.timestamps), values, self.ihdi):
            if mask.any():
                raise ParseError(rule)

    @property
    def size(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return len(self.timestamps)

    def performance_at(self, row: int) -> PerformanceVector:
        return PerformanceVector(self.values[row], self.timestamps[row])

    __eq__ = _fields_equal


def series_rules(t: np.ndarray, values: np.ndarray, ihdi: np.ndarray | None, normalized: bool = False):
    """The value rules of a series table over its timestamps (T,), values
    (T, n) and IHDI column (T,) or None, in the order they are checked.
    Each rule is the column it reads ("t", "values" or "ihdi"), the mask of
    the cells that break it, the rule for the whole table, and the rule
    after one cell's value.  ``normalized`` adds the [0, 1] range of the
    values, which the series format sets and a table does not."""
    yield "values", ~np.isfinite(values), "series values must all be finite", "is not a finite number"
    later = np.zeros(len(t), dtype=bool)
    later[1:] = t[1:] <= t[:-1]
    rule = "series timestamps must be strictly increasing"
    if later.any():
        k = int(later.argmax())
        rule += f", got {t[k - 1]} then {t[k]}"
    yield "t", later, rule, "is non-monotone: timestamps must strictly increase"
    if normalized:
        yield "values", (values < 0.0) | (values > 1.0), "series values must lie in [0, 1]", "is outside [0, 1]"
    if ihdi is not None:
        yield "ihdi", ~((ihdi > 0.0) & (ihdi <= 1.0)), "IHDI values must lie in (0, 1]", "is outside (0, 1]"


def _series_header(n: int, ihdi: bool) -> list[str]:
    return ["t", *(f"S{k + 1}" for k in range(n)), *(["IHDI"] if ihdi else [])]


def _matrix_header(n: int) -> list[str]:
    return [f"S{k + 1}" for k in range(n)]


def _trace_header(n: int) -> list[str]:
    return ["t", *(f"W{k + 1}" for k in range(n)), *(f"R{i + 1}{j + 1}" for i in range(n) for j in range(n))]


def _qc_header() -> list[str]:
    return ["t", "MEAN_W", "IHDI", "QC"]


def _read_table(text: str, what: str, expected) -> tuple[list[str], np.ndarray, list[int]]:
    """The one CSV reader: the header, the body as a rows x columns float
    array, and each body row's physical line number.  Only ``\\n`` ends a
    line, and one ``\\r`` before it is dropped; any other control character
    stays inside its cell.  Blank lines are skipped but counted.  The
    header must equal ``expected(header)`` cell by cell after stripping.
    Every cell must be a finite number; a ``t`` column holds integers read
    by ``int`` (so ``1.0`` is an error) of magnitude below 2**53, so each
    is exact as a binary64."""
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    rows = [k for k, line in enumerate(lines, start=1) if line.strip()]
    if not rows:
        raise ParseError(f"{what} is empty: expected a header line")
    first = rows.pop(0)
    header = [cell.strip() for cell in lines[first - 1].split(",")]
    wanted = expected(header)
    if header != wanted or not lines[first - 1].isascii():
        raise ParseError(f"line {first}: {what} header {reprlib.repr(lines[first - 1])} is not {','.join(wanted)}")
    if not rows:
        raise ParseError(f"line {first}: {what} has a header but no data rows")
    width, integral = len(header), header[0] == "t"
    values: list[float] = []
    try:
        for k in rows:
            line = lines[k - 1]
            # int and float read PEP 515 underscores ('1_0' is 10) and any Unicode digit
            if "_" in line or not line.isascii():
                bad = "'_'" if "_" in line else "non-ASCII text"
                raise ParseError(f"line {k}: {bad} is not allowed in a number")
            row = line.split(",")
            if len(row) != width:
                raise ParseError(f"line {k}: expected {width} cells, got {len(row)}")
            values += map(float, row)
            if integral:
                int(row[0])
    except ValueError:
        for column, cell in zip(header, row):
            try:
                (int if column == "t" else float)(cell)
            except ValueError:
                kind = "non-integer" if column == "t" else "non-numeric"
                cell = reprlib.repr(cell.strip(string.whitespace))  # the whitespace int and float skip
                raise ParseError(f"line {k}: {kind} cell {cell} in column {column}") from None
    body = np.array(values).reshape(len(rows), width)
    _refuse(~np.isfinite(body), body, header, rows, "is not a finite number")
    if integral:
        _refuse(np.abs(body[:, :1]) >= 2.0**53, body, header, rows, "is not within (-2**53, 2**53)")
    return header, body, rows


def _refuse(mask: np.ndarray, values: np.ndarray, names: list[str], rows: list[int], rule: str) -> None:
    """Reject a table at the first cell where ``mask`` holds.  ``mask`` and
    ``values`` have one row per line number in ``rows`` and one column per
    name in ``names``."""
    if mask.any():
        i, j = np.argwhere(mask)[0]
        value = repr(float(values[i, j])).removesuffix(".0")
        raise ParseError(f"line {rows[i]}: {names[j]} = {value} {rule}")


def parse_series(text: str) -> SeriesTable:
    """Parse a ``t,S1,...,Sn[,IHDI]`` table (at least one subsystem) whose
    performance cells lie in [0, 1]."""
    header, body, rows = _read_table(
        text, "series", lambda h: _series_header(max(len(h) - 1 - (h[-1] == "IHDI"), 1), h[-1] == "IHDI")
    )
    has_ihdi = header[-1] == "IHDI"
    n = len(header) - 1 - has_ihdi
    t, values, ihdi = body[:, 0], body[:, 1 : n + 1], body[:, n + 1] if has_ihdi else None
    columns = {"t": (t, ["t"]), "values": (values, header[1 : n + 1]), "ihdi": (ihdi, ["IHDI"])}
    for column, mask, _, rule in series_rules(t, values, ihdi, True):  # with the [0, 1] range
        array, names = columns[column]
        _refuse(mask.reshape(len(rows), -1), array.reshape(len(rows), -1), names, rows, rule)
    return SeriesTable(t.tolist(), values, ihdi)


def write_series(table: SeriesTable) -> str:
    values = table.values if table.ihdi is None else np.column_stack([table.values, table.ihdi])
    return _csv(_series_header(table.size, table.ihdi is not None), values.tolist(), table.timestamps)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def write_matrix(entries: np.ndarray) -> str:
    entries = np.asarray(entries, dtype=float)
    return _csv(_matrix_header(entries.shape[1]), entries.tolist())


def parse_matrix(text: str) -> np.ndarray:
    header, body, rows = _read_table(text, "matrix", lambda h: _matrix_header(len(h)))
    if len(rows) != len(header):
        line = rows[min(len(header), len(rows) - 1)]
        raise ParseError(f"line {line}: matrix must be square: {len(header)} columns but {len(rows)} rows")
    return body


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def write_trace(trace: SimulationTrace, format: str = "table") -> str:
    """Render a trace.  The table format is one CSV row per step (no
    diagnostics columns); the structured format is a self-describing JSON
    document that also carries per-branch update counts."""
    n, timestamps = trace.size, range(trace.start, trace.start + len(trace))
    if format == "table":
        rows = np.concatenate([trace.w, trace.r.reshape(len(trace), -1)], axis=1).tolist()
        return _csv(_trace_header(n), rows, timestamps)
    if format == "structured":
        doc = {
            "kind": "trace",
            "size": n,
            "steps": [
                {"t": t, "w": w.tolist(), "r": r.tolist(), "branches": dict(zip(BRANCH_FIELDS, b))}
                for t, w, r, b in zip(timestamps, trace.w, trace.r, trace.branches.tolist())
            ],
        }
        return _dumps(doc) + "\n"
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


def _may_hold_booleans(text: str) -> bool:
    """Whether a trace document's text may hold a ``true`` or ``false``
    literal: it has an 'f', or a 'u' outside an ``equal`` key.  Both are
    single-character scans, so a written trace costs one ``find`` per step
    rather than a look at every cell."""
    if "f" in text:
        return True
    k = text.find("u")
    while k != -1:
        if text[k - 2 : k + 3] != "equal":
            return True
        k = text.find("u", k + 1)
    return False


def _numeric(values: np.ndarray | None, ndim: int) -> bool:
    return values is not None and values.ndim == ndim and values.dtype.kind in "fi"


def _parse_trace_structured(text: str) -> SimulationTrace:
    """Each step's fields are read and type-checked here, naming the step;
    the trace's shape, value and branch-count rules are the model's, over
    the stacks, and a value or branch-count fault is the constructor's
    DomainError.

    Every cell must be a JSON number.  numpy reads a string, ``null``, a
    nested array or an integer beyond 64 bits into a non-numeric or
    misshapen array, and a boolean needs a literal that
    ``_may_hold_booleans`` finds, so only those steps are checked cell by
    cell, by ``_finite_array``."""
    doc = _load_json(text, "trace", "trace")
    step_docs = doc.get("steps", [])
    if not isinstance(step_docs, list):
        raise ParseError("trace 'steps' must be a list")
    if not step_docs:
        raise ParseError("trace document has no steps")
    booleans = _may_hold_booleans(text)
    timestamps, ws, rs, counts = [], [], [], []
    for k, s in enumerate(step_docs):
        if not isinstance(s, dict):
            raise ParseError(f"trace steps[{k}] must be an object")
        branches = s.get("branches", {})
        if not isinstance(branches, dict):
            raise ParseError(f"trace steps[{k}]: 'branches' must be an object")
        try:
            timestamps.append(_integral(s["t"], f"trace steps[{k}]: 't'"))
            counts.append([
                _integral(branches.get(name, 0), f"trace steps[{k}]: branch count {name!r}") for name in BRANCH_FIELDS
            ])
            w, r = s["w"], s["r"]
        except KeyError as e:
            raise ParseError(f"trace steps[{k}]: missing or malformed field {e!r}") from e
        try:
            w_k, r_k = np.array(w), np.array(r)
        except ValueError:  # a ragged array
            w_k = r_k = None
        if booleans or not (_numeric(w_k, 1) and _numeric(r_k, 2)):
            out: list[str] = []
            w_k = _finite_array(w, "w", 1, out, finite=False)
            r_k = _finite_array(r, "r", 2, out, finite=False)
            if out:
                raise ParseError(f"trace steps[{k}]: {out[0]}")
        ws.append(w_k)
        rs.append(r_k)
    w, r, start = stack_steps(timestamps, ws, rs)
    trace = SimulationTrace(w, r, counts, start)
    size = _integral(doc.get("size"), "trace 'size'")
    if size != trace.size:
        raise ParseError(f"trace 'size' is {size}, but its steps have {trace.size} subsystems")
    return trace


def _parse_trace_table(text: str) -> SimulationTrace:
    """The table's cells and ``t`` are checked here; the value rules are the
    model's, and a fault is reported at the first bad cell's line."""
    # at least two subsystems, as an influence matrix needs
    header, body, rows = _read_table(text, "trace", lambda h: _trace_header(max(2, sum(c[:1] == "W" for c in h))))
    n = sum(c[:1] == "W" for c in header)
    t = body[:, :1]
    _refuse(t[1:] != t[:-1] + 1.0, t[1:], ["t"], rows[1:], "does not follow the previous t by 1")
    w, r = body[:, 1 : n + 1], body[:, n + 1 :].reshape(-1, n, n)
    branches = np.zeros((len(rows), len(BRANCH_FIELDS)), dtype=np.int64)
    try:
        return SimulationTrace(w, r, branches, int(t[0, 0]))
    except DomainError:
        columns = {"w": (w, header[1 : n + 1]), "r": (r, header[n + 1 :])}
        for stack, mask, _, rule in trace_rules(w, r):
            values, names = columns[stack]
            _refuse(mask.reshape(len(rows), -1), values.reshape(len(rows), -1), names, rows, rule)
        raise


# ---------------------------------------------------------------------------
# Quality table, ranking and tune documents (CLI machine output)
# ---------------------------------------------------------------------------

def write_qc_table(points: list[QualityPoint]) -> str:
    return _csv(_qc_header(), [(p.mean_w, p.ihdi, p.qc) for p in points], [p.timestamp for p in points])


def parse_qc_table(text: str) -> list[QualityPoint]:
    _, body, rows = _read_table(text, "quality table", lambda h: _qc_header())
    points = []
    for lineno, (t, mean_w, ihdi, qc) in zip(rows, body.tolist()):
        try:
            points.append(QualityPoint(int(t), ihdi, mean_w, qc))
        except DomainError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    return points


def write_ranking(ranking: InfluenceRanking) -> str:
    doc = {
        "kind": "ranking",
        "design": ranking.design,
        "order": [f"S{k + 1}" for k in ranking.order],
        "loadings": list(ranking.loadings),
        "explained_variance_ratios": list(ranking.explained_variance),
    }
    return _dumps(doc) + "\n"


def parse_ranking(text: str) -> InfluenceRanking:
    doc = _load_json(text, "ranking", "ranking")
    try:
        labels = [re.fullmatch(r"S([1-9][0-9]*)", label) for label in doc["order"]]
        if not all(labels):
            raise ValueError(f"order labels must be S<k> with k >= 1, got {doc['order']}")
        if not all(map(_is_number, [*doc["loadings"], *doc["explained_variance_ratios"]])):
            raise ValueError("loadings and explained_variance_ratios must be numbers")
        return InfluenceRanking(
            design=doc["design"],
            order=tuple(int(m.group(1)) - 1 for m in labels),
            loadings=tuple(float(v) for v in doc["loadings"]),
            explained_variance=tuple(float(v) for v in doc["explained_variance_ratios"]),
        )
    except (KeyError, TypeError, ValueError, DomainError) as e:
        raise ParseError(f"malformed ranking document: {e}") from e


def write_tune_result(r_prev: InfluenceMatrix, r_curr: InfluenceMatrix, report: CalibrationReport) -> str:
    """The tune document of the tuned seed matrix, its one-step advance and
    the report, the triple ``tune_initial_r`` returns."""
    doc = {
        "kind": "tune",
        "t_prev": r_prev.timestamp,
        "t_curr": r_curr.timestamp,
        "r_prev": r_prev.entries.tolist(),
        "r_curr": r_curr.entries.tolist(),
        "report": {
            "tol": report.tol,
            "residuals": list(report.residuals),
            "sweeps": list(report.sweeps),
            "converged": list(report.converged),
            "notes": list(report.notes),
        },
    }
    return _dumps(doc) + "\n"


def parse_tune_result(text: str) -> tuple[InfluenceMatrix, InfluenceMatrix, CalibrationReport]:
    """The triple that ``write_tune_result`` wrote."""
    doc = _load_json(text, "tune", "tune")
    try:
        raw = doc["report"]
        if not all(map(_is_number, [raw["tol"], *raw["residuals"]])):
            raise ValueError(f"tol and residuals must be numbers, got {reprlib.repr(raw)}")
        if not isinstance(raw["notes"], list) or not all(isinstance(note, str) for note in raw["notes"]):
            raise ValueError(f"notes must be a list of strings, got {reprlib.repr(raw['notes'])}")
        report = CalibrationReport(
            tol=float(raw["tol"]),
            residuals=tuple(raw["residuals"]),
            sweeps=tuple(_integral(s, "tune report 'sweeps' item") for s in raw["sweeps"]),
            notes=tuple(raw["notes"]),
        )
        out: list[str] = []
        r_prev = _finite_array(doc["r_prev"], "r_prev", 2, out)
        r_curr = _finite_array(doc["r_curr"], "r_curr", 2, out)
        if out:
            raise ValueError("; ".join(out))
        return (
            InfluenceMatrix(r_prev, _integral(doc["t_prev"], "tune 't_prev'")),
            InfluenceMatrix(r_curr, _integral(doc["t_curr"], "tune 't_curr'")),
            report,
        )
    except (KeyError, TypeError, ValueError, DomainError, ShapeError) as e:
        raise ParseError(f"malformed tune document: {e}") from e
