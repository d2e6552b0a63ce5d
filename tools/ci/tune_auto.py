"""usage: tune_auto.py INPUTS_DIR, from the root of a source tree.
Runs `tune --series S --u auto` with that tree's package on every
series.csv under INPUTS_DIR, in sorted order, and prints one line
per series: its path, the exit code, and the SHA-256 of stdout and
of stderr."""
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, "src")
from crossimpact.cli import main

inputs = Path(sys.argv[1])
for series in sorted(inputs.rglob("series.csv")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["tune", "--series", str(series), "--u", "auto"])
    digests = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    print(series.relative_to(inputs), code, *digests)
