#!/usr/bin/env sh
# Compare a figure binary's full output against its committed golden
# (tests/golden/NAME.txt): tables, Pareto fronts, best points, and the
# HILP sweep's solve, node, backtrack and dominance-pruned totals.
# The one run-dependent part of any figure's output, the summed solve
# seconds on fig7's "solver effort" line, is masked on both sides; the
# mask leaves every other line alone.
#
# Usage: scripts/golden.sh BINARY GOLDEN_FILE
#   Run from a scratch directory: a sweep may write files into the
#   working directory (fig7 writes FIG7_sweep.json), and the masked
#   output lands in NAME.out, NAME being the golden's base name. To
#   re-record a golden after an intended change, copy NAME.out over
#   GOLDEN_FILE.

set -eu

binary="$1"
golden="$2"
out="$(basename "${golden}" .txt).out"

mask() {
    sed -E '/solver effort:/ s/, [0-9]+\.[0-9]+s \|/, <seconds> |/'
}

"${binary}" --benchmark_filter=none 2> /dev/null | mask > "${out}"
if ! diff -u "${golden}" "${out}"; then
    echo "$(basename "${binary}") output differs from ${golden}" >&2
    exit 1
fi
echo "$(basename "${binary}") output matches ${golden}"
