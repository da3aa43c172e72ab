#!/usr/bin/env bash
# Fails if the compiler fuses a multiply-add anywhere in module code, test
# files included, on an architecture that has the instruction. Go may fuse
# x*y + z into one FMA unless the product is rounded explicitly, as
# float64(x*y) + z; amd64 never fuses, so a fused site is a place where
# another GOARCH would compute different bits (DESIGN.md "Same bits on every
# GOARCH"). Offline, stock toolchain:
#
#   bash ci/fma.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for arch in arm64 ppc64le s390x riscv64 loong64; do
	# -gcflags applies to the named packages only, so the listing is module
	# code; -c builds every package's test binary too. benchmark/ is left
	# out: its numbers are host measurements, not simulated bytes, and it
	# changes only together with BENCHMARK.json.
	asm=$(GOARCH=$arch go test -c -o "$out/" -gcflags=-S $(go list ./... | grep -v '^sae/benchmark$') 2>&1) || {
		echo "$asm"
		exit 1
	}
	hits=$(grep -E '\sF(N?M(ADD|SUB)[DS]?)\s' <<<"$asm" | grep -oE '\([^)]*\.go:[0-9]+\)' | sort -u || true)
	if [ -n "$hits" ]; then
		echo "$arch: fused multiply-add at"
		echo "$hits"
		status=1
	fi
done
exit $status
