"""CSV fuzzing: mutated series, matrix, table-trace and quality tables keep
the error contract.

Documents come from the package's own writers and are then mutated cell
by cell and line by line.  Only ParseError may escape a reader, and
through the CLI (``calibrate``, ``tune``, ``qc``, ``rank``) every one of
them exits 0, 1 or 2, with 1 for every rejected file and no traceback.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossimpact import (
    ParseError,
    SeriesTable,
    parse_matrix,
    parse_qc_table,
    parse_series,
    parse_trace,
    quality_coefficient,
    write_matrix,
    write_qc_table,
    write_series,
    write_trace,
)
from crossimpact.cli import main
from conftest import EXAMPLE_STRENGTHS, random_influence, random_trace

KINDS = ["series", "matrix", "trace", "qc"]
READERS = {"series": parse_series, "matrix": parse_matrix, "trace": parse_trace, "qc": parse_qc_table}
TOKENS = [
    "_", "1_0", "0.5_0", "١", "0.٥", "０.5", "nan", "inf", "-inf", "1e400", "1" * 5000,
    "-0.5", "1.5", "2", "0", "-0.0", "1.0", "1e-3", "0.25", "3", "", " ", "x", "+1", ".5",
]
HEADER_NAMES = ["t", "T", "S0", "S1", "S2", "S9", "W1", "R11", "IHDI", "MEAN_W", "QC", "x", ""]
WHITESPACE = [" ", "\t", "  \t "]


def _document(kind: str, rng: np.random.Generator, n: int, rows: int) -> str:
    if kind == "series":
        timestamps = np.cumsum(rng.integers(1, 3, size=rows)).tolist()
        ihdi = rng.uniform(0.1, 1.0, size=rows) if rng.random() < 0.7 else None
        return write_series(SeriesTable(timestamps, rng.uniform(0.0, 1.0, size=(rows, n)), ihdi))
    if kind == "matrix":
        return write_matrix(random_influence(rng, n).entries)
    if kind == "trace":
        return write_trace(random_trace(rng, steps=rows, n=n), "table")
    points = []
    for t in range(rows):  # row by row, values before index: the draw order the seeds rely on
        values = rng.uniform(0.0, 1.0, size=n)
        points += quality_coefficient(SeriesTable([t], [values], [float(rng.uniform(0.1, 1.0))]))
    return write_qc_table(points)


def _mutate(draw, lines: list[str]) -> None:
    """Apply one mutation to ``lines`` in place."""
    k = draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    action = draw(st.sampled_from([
        "drop-cell", "duplicate-cell", "insert-cell", "drop-row", "duplicate-row", "insert-row",
        "blank", "whitespace", "token", "t-huge", "t-back", "rename", "reorder",
    ]))
    if action == "drop-cell":
        del cells[j]
    elif action == "duplicate-cell":
        cells.insert(j, cells[j])
    elif action == "insert-cell":
        cells.insert(j, draw(st.sampled_from(TOKENS)))
    elif action == "drop-row" and len(lines) > 1:
        del lines[k]
        return
    elif action == "duplicate-row":
        lines.insert(k, lines[k])
        return
    elif action == "insert-row":
        lines.insert(k, ",".join(draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=len(cells) + 1))))
        return
    elif action == "blank":
        lines.insert(k, draw(st.sampled_from(["", *WHITESPACE])))
        return
    elif action == "whitespace":
        cells[j] = draw(st.sampled_from(WHITESPACE)) + cells[j] + draw(st.sampled_from(["", *WHITESPACE]))
    elif action == "token":
        cells[j] = draw(st.sampled_from(TOKENS))
    elif action == "t-huge" and k > 0:
        cells[0] = "1" * 5000
    elif action == "t-back" and k > 1:
        cells[0] = lines[k - 1].split(",")[0]
    elif action == "rename":
        k, cells = 0, lines[0].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(HEADER_NAMES))
    elif action == "reorder":
        k, cells = 0, lines[0].split(",")
        i = draw(st.integers(0, len(cells) - 1))
        cells[i], cells[-1] = cells[-1], cells[i]
    lines[k] = ",".join(cells)


@st.composite
def mutated_tables(draw):
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 4))
    rows = n if kind == "matrix" else draw(st.integers(2, 5))
    lines = _document(kind, rng, n, rows).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, lines)
    return kind, "\n".join(lines) + "\n"


GOOD_SERIES = "t,S1,S2,S3,S4,S5,IHDI\n0,0.5,0.4,0.4,0.3,0.5,0.8\n1,0.5,0.45,0.4,0.3,0.5,0.8\n"
GOOD_MATRIX = write_matrix(np.array(EXAMPLE_STRENGTHS))


def _commands(kind: str, path: str, good: dict) -> list[list[str]]:
    """The CLI calls that read a ``kind`` file; the other inputs are valid."""
    if kind == "series":
        return [
            ["calibrate", "--r", good["matrix"], "--w", path],
            ["tune", "--series", path, "--max-sweeps", "20"],
            ["qc", "--series", path],
        ]
    if kind == "matrix":
        return [
            ["calibrate", "--r", path, "--w", good["series"]],
            ["tune", "--series", good["series"], "--u", path, "--max-sweeps", "20"],
        ]
    if kind == "trace":
        return [["rank", "--trace", path]]
    return []  # no command reads a quality table


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("csv-fuzz")
    (root / "series.csv").write_text(GOOD_SERIES, encoding="utf-8")
    (root / "matrix.csv").write_text(GOOD_MATRIX, encoding="utf-8")
    return {"root": root, "series": str(root / "series.csv"), "matrix": str(root / "matrix.csv")}


@given(doc=mutated_tables())
@example(doc=("series", "t,S1,S2\n\n\n0,0.5,x\n"))
@example(doc=("series", "t,S1,S2\n١,0.٥,０.5\n"))
@example(doc=("series", "t,S1,S2,IHDI\n" + "1" * 5000 + ",0.5,0.4,0.8\n"))
@example(doc=("series", "t,S1,S2,IHDI\n1,0.5,0.4,0.8\n0,0.5,0.4,0.8\n"))
@example(doc=("matrix", "S1,S2\n1,nan\n0.5,1\n"))
@example(doc=("matrix", "S1,S2\n1,١\n0.5,1\n"))
@example(doc=("trace", "t,W1,W2,R11,R12,R21,R22\n1,0.5,inf,1,0.5,0.5,1\n2,0.5,0.4,1,0.5,0.5,1\n"))
@example(doc=("trace", "t,W1,W2,R11,R12,R21,R22\n1,0.5,0.4,1,0.5,0.5,0.9\n2,0.5,0.4,1,0.5,0.5,1\n"))
@example(doc=("trace", "t,W1,W2,R11,R12,R21,R22\n1,0.5,0.4,1,0.5,0.5,1\n3,0.5,0.4,1,0.5,0.5,1\n"))
@example(doc=("qc", "t,MEAN_W,IHDI,QC\n1,0.5,0.8,0.9\n"))
@settings(max_examples=200, deadline=None)
def test_mutated_tables_keep_the_error_contract(doc, files):
    kind, text = doc
    try:
        READERS[kind](text)
        rejected = False
    except ParseError:
        rejected = True
    path = files["root"] / f"doc.{kind}.csv"
    path.write_text(text, encoding="utf-8")
    for argv in _commands(kind, str(path), files):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if rejected:
            assert code == 1, argv
        assert "Traceback" not in err.getvalue()
