#!/usr/bin/env sh
# Compare the full fig7_design_space output against the committed
# golden (tests/golden/fig7.txt): Pareto fronts, best points, and the
# HILP sweep's node/backtrack totals. The one run-dependent part of
# the output, the "solver effort" line's summed solve seconds and its
# dominance-pruned count (pruning depends on sweep completion order),
# is masked on both sides.
#
# Usage: scripts/golden_fig7.sh FIG7_BINARY GOLDEN_FILE
#   Run from a scratch directory: the sweep writes FIG7_sweep.json
#   and the masked output (fig7.out) into the working directory. To
#   re-record the golden after an intended change, copy fig7.out over
#   GOLDEN_FILE.

set -eu

fig7="$1"
golden="$2"

mask() {
    sed -E '/solver effort:/ {
        s/, [0-9]+\.[0-9]+s \|/, <seconds> |/
        s/[0-9]+ pruned/<n> pruned/
    }'
}

"${fig7}" --benchmark_filter=none 2> /dev/null | mask > fig7.out
if ! diff -u "${golden}" fig7.out; then
    echo "fig7 output differs from ${golden}" >&2
    exit 1
fi
echo "fig7 output matches ${golden}"
