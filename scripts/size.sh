#!/usr/bin/env bash
# Prints the tree's Go line counts as CHANGES.md and ROADMAP.md count
# them: every .go file under internal/ and cmd/, leaving out testdata/,
# split into non-test and test (_test.go) lines.
#
#   bash scripts/size.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
	find internal cmd -name '*.go' -not -path '*/testdata/*' "$@" -print0 |
		xargs -0 cat | wc -l
}

echo "non-test Go lines: $(count -not -name '*_test.go')"
echo "test Go lines: $(count -name '*_test.go')"
