"""usage: generate_series.py OUT_DIR, from the root of a source tree.
Writes every workload's inputs at seed 1 under OUT_DIR/<workload>."""
import sys
from pathlib import Path

sys.path.insert(0, "perfbench")
import workloads

for name, workload in workloads.WORKLOADS.items():
    workloads.generate(workload, 1, Path(sys.argv[1]) / name)
