#!/usr/bin/env bash
# Runs the full sae-exp set — every experiment with its CSV export, then the
# committed scenario specs — at seeds 1 to 8 with two builds of sae-exp, and
# fails on the first stdout byte, exit status or CSV file that differs. It is
# the proof that a change to the simulator's core (internal/sim,
# internal/psres) moved no simulated byte, at more seeds than the goldens pin:
#
#   git archive PARENT | tar -x -C /tmp/parent && (cd /tmp/parent && go build -o /tmp/parent-exp ./cmd/sae-exp)
#   go build -o /tmp/change-exp ./cmd/sae-exp
#   bash ci/seeddiff.sh /tmp/parent-exp /tmp/change-exp
#
# Wall-time lines go to stderr and are not compared.
set -euo pipefail
if [ $# -ne 2 ]; then
	echo "usage: ci/seeddiff.sh PARENT_BIN CHANGE_BIN" >&2
	exit 2
fi
bins=("$1" "$2")
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
specs=()
for f in scenarios/*.yaml; do
	specs+=(-scenario "$f")
done
for seed in 1 2 3 4 5 6 7 8; do
	for i in 0 1; do
		status=0
		"${bins[$i]}" -seed "$seed" -csv "$out/csv$i" >"$out/out$i" 2>/dev/null || status=$?
		echo "experiments exit $status" >>"$out/out$i"
		status=0
		"${bins[$i]}" -seed "$seed" "${specs[@]}" >>"$out/out$i" 2>/dev/null || status=$?
		echo "specs exit $status" >>"$out/out$i"
	done
	cmp "$out/out0" "$out/out1"
	diff -r "$out/csv0" "$out/csv1"
	echo "seed $seed: $(wc -l <"$out/out0") lines and $(find "$out/csv0" -type f | wc -l) CSV files identical"
	rm -rf "${out:?}"/*
done
