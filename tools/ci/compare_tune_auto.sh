#!/usr/bin/env bash
# usage: compare_tune_auto.sh HEAD_TREE BASE_TREE INPUTS
# Runs tune_auto.py (the copy beside this script, since the base tree need
# not have tools/ci) in both trees on every series.csv under INPUTS and
# fails unless the exit codes and output digests are equal.
tune_auto="$(cd "$(dirname "$0")" && pwd)/tune_auto.py"
inputs="$(cd "$3" && pwd)" || exit 1
head="$(cd "$1" && python3 "$tune_auto" "$inputs")"
base="$(cd "$2" && python3 "$tune_auto" "$inputs")"
if [ -n "$head" ] && [ "$head" = "$base" ]; then
  echo "tune --u auto: $(echo "$head" | wc -l) series, equal output and exit codes"
else
  diff <(echo "$base") <(echo "$head")
  exit 1
fi
