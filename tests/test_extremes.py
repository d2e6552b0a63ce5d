"""Numeric extremes through all five commands.

Inputs are built from magnitudes between 0 and the binary64 limit, with
``clamp`` and ``normalize_w`` on and off and ``eps_delta`` from 1e-300 to
1e300.  Every command must end in exit 0, 1 or 2, and, with every warning
turned into an error, none may print a numpy warning or a traceback.
"""

import contextlib
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossimpact.cli import main

MAGNITUDES = [0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308]
EPS_DELTAS = [1e-300, 1e-9, 1.0, 1e300]


def _table(header: list[str], rows: list[list[float]], start: int | None = 0) -> str:
    """A CSV table whose rows carry t = start, start + 1, ..., or no t."""
    lines = [",".join(header)]
    for k, row in enumerate(rows):
        lines.append(",".join(([] if start is None else [str(start + k)]) + ["%.17g" % x for x in row]))
    return "\n".join(lines) + "\n"


@st.composite
def inputs(draw):
    """One case's files for all five commands, as (name, text) pairs, and
    each command's arguments with ``{name}`` standing for a file's path.
    Cells stay in the range their option or format sets, so that most
    files reach the numerics; a run whose options lift a range draws from
    every magnitude, of either sign."""
    n = draw(st.integers(2, 3))
    magnitude = st.sampled_from(MAGNITUDES)
    unit = st.sampled_from([m for m in MAGNITUDES if m <= 1.0]) | st.floats(0.0, 1.0)
    signed = st.builds(lambda m, negative: -m if negative else m, magnitude, st.booleans())

    def cells(count, values):
        return draw(st.lists(values, min_size=count, max_size=count))

    def grid(values):
        entries = cells(n * n, values)
        return [[1.0 if i == j else entries[i * n + j] for j in range(n)] for i in range(n)]

    steps = draw(st.integers(1, 4))
    clamp, normalize_w = draw(st.booleans()), draw(st.booleans())
    performance = unit if normalize_w else signed
    scenario = {
        "subsystems": [f"s{k}" for k in range(n)],
        "w0": cells(n, performance),
        "w1": cells(n, performance),
        "r1": grid(unit if clamp else magnitude),
        "u": draw(st.sampled_from(["calibrate", "matrix"])),
        "policy": {str(s): cells(n, signed) for s in draw(st.sets(st.integers(1, steps), max_size=2))},
        "options": {"clamp": clamp, "normalize_w": normalize_w, "eps_delta": draw(st.sampled_from(EPS_DELTAS))},
        "horizon": steps,
    }
    if scenario["u"] == "matrix":
        scenario["u"] = grid(signed)
    index = st.sampled_from([5e-324, 1e-300, 1.0]) | st.floats(1e-300, 1.0)
    series = [cells(n, unit) + [draw(index)] for _ in range(draw(st.integers(2, 4)))]
    trace = [cells(n, unit) + sum(grid(magnitude), []) for _ in range(draw(st.integers(2, 4)))]
    trace_header = ["t", *(f"W{k + 1}" for k in range(n)), *(f"R{i + 1}{j + 1}" for i in range(n) for j in range(n))]
    matrix_header = [f"S{k + 1}" for k in range(n)]
    files = {
        "scenario": json.dumps(scenario),
        "series": _table(["t", *matrix_header, "IHDI"], series),
        "strengths": _table(matrix_header, grid(magnitude), start=None),
        "utility": _table(matrix_header, grid(signed), start=None),
        "trace": _table(trace_header, trace, start=2),
    }
    commands = [
        ["simulate", "--scenario", "{scenario}", "--format", draw(st.sampled_from(["table", "structured"]))],
        ["calibrate", "--r", "{strengths}", "--w", "{series}"],
        ["tune", "--series", "{series}", "--u", draw(st.sampled_from(["{utility}", "auto"])), "--tol", "1e-6"],
        ["qc", "--series", "{series}"],
        ["rank", "--trace", "{trace}", "--design", draw(st.sampled_from(["column-sums", "flattened"]))],
    ]
    return files, commands


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@given(case=inputs())
@settings(max_examples=150, deadline=None)
@example(
    case=(
        {
            "scenario": json.dumps({
                "w0": [0.0, 0.0], "w1": [1e308, 1e308], "r1": [[1.0, 0.0], [0.0, 1.0]],
                "u": [[-1e308, 0.0], [0.0, -1e308]], "subsystems": ["a", "b"],
                "options": {"normalize_w": False}, "horizon": 3,
            }),
            "series": "t,S1,S2,IHDI\n0,5e-324,1,5e-324\n1,1,0,1\n",
            "strengths": "S1,S2\n1,1.7e308\n0,1\n",
            "utility": "S1,S2\n1.7e308,-1.7e308\n-1.7e308,1.7e308\n",
            "trace": "t,W1,W2,R11,R12,R21,R22\n2,0,1,1,1.7e308,0,1\n3,1,0,1,0,1.7e308,1\n",
        },
        [
            ["simulate", "--scenario", "{scenario}"],
            ["calibrate", "--r", "{strengths}", "--w", "{series}"],
            ["tune", "--series", "{series}", "--u", "{utility}"],
            ["qc", "--series", "{series}"],
            ["rank", "--trace", "{trace}", "--design", "flattened"],
        ],
    )
)
def test_every_command_exits_cleanly_at_the_extremes(case, tmp_path_factory):
    files, commands = case
    directory = tmp_path_factory.mktemp("extremes")
    paths = {}
    for name, text in files.items():
        paths[name] = str(directory / name)
        (directory / name).write_text(text)
    for command in commands:
        argv = [arg.format(**paths) for arg in command]
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], code, err)
        assert "Traceback" not in err and "Warning" not in err, (argv[0], err)
