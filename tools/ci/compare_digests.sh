#!/usr/bin/env bash
# usage: compare_digests.sh HEAD_TREE BASE_TREE
# Runs perfbench/run.py --digest for every workload at seeds 1 and 2
# in both trees and fails on any difference or failed run.
status=0
for workload in paper5 wide100 observed25; do
  for seed in 1 2; do
    head="$(cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --digest)" || status=1
    base="$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --digest)" || status=1
    if [ -n "$head" ] && [ "$head" = "$base" ]; then
      echo "$workload seed $seed: equal (${head##*$'\n'})"
    else
      echo "$workload seed $seed: the digests differ"
      diff <(echo "$base") <(echo "$head")
      status=1
    fi
  done
done
exit "$status"
