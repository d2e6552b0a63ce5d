"""usage: import_time.py TREE [RUNS]
Runs `python -X importtime -c "import crossimpact.cli"` RUNS times (default
5) with TREE/src on the path, and prints the median self time of each
crossimpact module, of all of them together and of numpy with its
submodules, in milliseconds."""
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

tree = Path(sys.argv[1]).resolve()
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 5
env = dict(os.environ, PYTHONPATH=str(tree / "src"))
samples = defaultdict(list)
for _ in range(runs):
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import crossimpact.cli"],
        env=env, cwd=tree, capture_output=True, text=True, check=True,
    )
    self_us = defaultdict(int)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if top == "crossimpact":
            self_us[name] += int(own)
            self_us["crossimpact (all)"] += int(own)
        elif top == "numpy":
            self_us["numpy (all)"] += int(own)
    for name, us in self_us.items():
        samples[name].append(us)
print(f"{tree}: median self time over {runs} imports")
for name in sorted(samples):
    print(f"  {name:<28} {statistics.median(samples[name]) / 1000:8.2f} ms")
