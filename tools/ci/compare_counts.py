"""usage: compare_counts.py BASE_TREE HEAD_TREE
Runs `perfbench/run.py --trace 1 --seconds 2 --seed 1` for every workload
in both trees and fails unless each reports the same work counts per
round: cells updated, the four branch totals, policy evaluations, tune
sweeps and trace bytes.  A change that claims speed may not change the
work it does; a count missing from either tree is a failure."""
import json
import subprocess
import sys

WORKLOADS = ("paper5", "wide100", "observed25")
COUNTS = (
    "model.cells_updated",
    "model.branch_one_zero",
    "model.branch_equal",
    "model.branch_ratio",
    "model.branch_degenerate",
    "calibration.policy_evals",
    "calibration.tune_sweeps",
    "scenario_io.trace_bytes",
)


def counts(tree, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1"]
    run = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        sys.exit(f"{tree}: the traced {workload} run exited {run.returncode}")
    metrics = json.loads(run.stdout.splitlines()[-1])["metrics"]
    return {key: metrics[key]["value"] if key in metrics else None for key in COUNTS}


base_tree, head_tree = sys.argv[1:3]
status = 0
for workload in WORKLOADS:
    base, head = counts(base_tree, workload), counts(head_tree, workload)
    faults = [f"{key}: {base[key]} -> {head[key]}" for key in COUNTS if base[key] is None or base[key] != head[key]]
    if faults:
        print(f"{workload}: the work counts differ or are missing: " + "; ".join(faults))
        status = 1
    else:
        print(f"{workload}: equal work counts ({', '.join(f'{k} {v}' for k, v in head.items())})")
sys.exit(status)
