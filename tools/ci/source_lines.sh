#!/usr/bin/env bash
# usage: source_lines.sh HEAD_TREE BASE_TREE
# Prints wc -l of src/crossimpact/*.py in both trees and the net change.
echo "base:" && (cd "$2" && wc -l src/crossimpact/*.py)
echo "head:" && (cd "$1" && wc -l src/crossimpact/*.py)
base="$(cat "$2"/src/crossimpact/*.py | wc -l)"
head="$(cat "$1"/src/crossimpact/*.py | wc -l)"
echo "src/crossimpact: $base -> $head lines, net $((head - base))"
