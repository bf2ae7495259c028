#!/usr/bin/env bash
# Print the module's Go line counts: non-test files and _test.go files,
# excluding the separate perfbench/ benchmark module. Removing duplicated
# code paths is measured in the non-test count.
#
# Usage: scripts/loc.sh   (or: make loc)
set -euo pipefail
cd "$(dirname "$0")/.."

lines() {
	find . -name '*.go' -not -path './perfbench/*' -not -path './.bench_build/*' "$@" -print0 |
		xargs -0 cat | wc -l
}

echo "non-test Go lines: $(lines -not -name '*_test.go')"
echo "test Go lines:     $(lines -name '*_test.go')"
