"""Digest run, then a traced run, of one workload; fail unless the
traced run's last stdout line is a strict-JSON result with
correct: true and 38 metrics, and stderr names no missing function."""
import json
import subprocess
import sys

workload = sys.argv[1]
base = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
subprocess.run(base + ["--digest"], check=True)
run = subprocess.run(base + ["--seconds", "2", "--trace", "1"], capture_output=True, text=True)
sys.stderr.write(run.stderr)
assert run.returncode == 0, f"traced run exited {run.returncode}"


def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


result = json.loads(run.stdout.splitlines()[-1], parse_constant=refuse)
assert result["correct"] is True, "the traced run's outputs failed their checks"
assert len(result["metrics"]) == 38, f"{len(result['metrics'])} metrics, expected 38"
assert "no longer exists" not in run.stderr, "a traced function no longer exists"
print(f"{workload}: traced result has all 38 metrics")
