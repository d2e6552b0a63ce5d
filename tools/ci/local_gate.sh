#!/usr/bin/env bash
# usage: local_gate.sh BASE [HEAD_TREE]
# The checks of the CI digest and perfbench-traced jobs, run on one
# machine.  BASE is any git revision of this repository; it is extracted
# with git archive into a temporary directory and compared with HEAD_TREE
# (default: this working tree).  Prints the source line count and the
# import time of both trees (report only: neither changes the exit status),
# runs the digest and tune --u auto comparers, the traced-result check of
# every workload on HEAD_TREE and the work-count comparer, ends with one
# summary line and exits 1 if any of them failed.
set -uo pipefail
ci="$(cd "$(dirname "$0")" && pwd)"
head="$(cd "${2:-$ci/../..}" && pwd)" || exit 1
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
# run from a subdirectory, git archive would take only that subdirectory
git -C "$ci/../.." archive "$1" | tar -x -C "$work/base" || exit 1
[ -f "$work/base/perfbench/run.py" ] || { echo "$1 has no perfbench/run.py"; exit 1; }
bash "$ci/source_lines.sh" "$head" "$work/base"
python3 "$ci/import_time.py" "$work/base" || echo "import time report failed (report only)"
python3 "$ci/import_time.py" "$head" || echo "import time report failed (report only)"
digests=passed tune=passed traced=passed counts=passed
bash "$ci/compare_digests.sh" "$head" "$work/base" || digests=FAILED
(cd "$head" && python3 "$ci/generate_series.py" "$work/inputs") \
  && bash "$ci/compare_tune_auto.sh" "$head" "$work/base" "$work/inputs" || tune=FAILED
for workload in paper5 wide100 observed25; do
  (cd "$head" && python3 "$ci/traced_run.py" "$workload") || traced=FAILED
done
python3 "$ci/compare_counts.py" "$work/base" "$head" || counts=FAILED
echo "local gate against $1: digests $digests, tune --u auto $tune, traced results $traced, work counts $counts"
[ "$digests" = passed ] && [ "$tune" = passed ] && [ "$traced" = passed ] && [ "$counts" = passed ]
