#!/bin/sh
# Regenerates the committed lock-order graph (docs/lock-order.dot) from
# the code.  Run when a lock or an acquired-while-held edge is added,
# removed or renamed, or a lock moves to another file, and commit the
# result; the graph carries no line numbers, so moving code within a file
# needs no regeneration.  CI's analysis gate diffs the committed file
# against a fresh extraction and fails on drift.
set -eu
root=$(CDPATH= cd -- "$(dirname -- "$0")/../.." && pwd)
exec python3 "$root/tools/analysis/pjsched_analysis.py" \
  --root "$root" --pass lock-order \
  --dot-out "$root/docs/lock-order.dot" "$@"
