#!/usr/bin/env bash
# Non-test Go lines (wc -l, comments and blanks included) per top-level
# package, and in total. benchmark/ is excluded: ordinary PRs may not touch
# it. These are the line-count bars ROADMAP.md and CHANGES.md quote.
#
#   bash ci/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 == "total" { next }
	{
		n = split($2, part, "/")
		pkg = n == 2 ? "." : part[2]
		if (n > 3 && (pkg == "cmd" || pkg == "internal" || pkg == "examples")) pkg = pkg "/" part[3]
		lines[pkg] += $1
		total += $1
	}
	END {
		for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg
		printf "%7d  total\n", total
	}' | sort -k2
