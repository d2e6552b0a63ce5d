"""The CI scripts under tools/ci: each one parses, and every script that
the workflow or the local gate names exists.  They run only in CI and in
tools/ci/local_gate.sh, so without these checks a broken one is found
late."""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / "tools" / "ci"


@pytest.mark.parametrize("script", sorted(CI.glob("*.py")), ids=lambda p: p.name)
def test_python_script_compiles(script):
    # compile() writes no bytecode, unlike py_compile
    compile(script.read_text(encoding="utf-8"), str(script), "exec")


@pytest.mark.parametrize("script", sorted(CI.glob("*.sh")), ids=lambda p: p.name)
def test_shell_script_parses(script):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    proc = subprocess.run([bash, "-n", str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "caller, pattern",
    [
        (ROOT / ".github" / "workflows" / "tests.yml", r"tools/ci/([\w-]+\.(?:py|sh))"),
        (CI / "local_gate.sh", r"\$ci/([\w-]+\.(?:py|sh))"),
    ],
    ids=["workflow", "local-gate"],
)
def test_named_scripts_exist(caller, pattern):
    names = set(re.findall(pattern, caller.read_text(encoding="utf-8")))
    assert names, f"{caller.name} names no tools/ci script"
    assert sorted(name for name in names if not (CI / name).is_file()) == []
