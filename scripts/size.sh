#!/usr/bin/env bash
# Prints the tree's Go line counts as CHANGES.md and ROADMAP.md count
# them: every .go file under internal/ and cmd/, leaving out testdata/,
# split into non-test and test (_test.go) lines. Exits 1 when the
# non-test count exceeds ceiling.
#
#   bash scripts/size.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

ceiling=19000

count() {
	find internal cmd -name '*.go' -not -path '*/testdata/*' "$@" -print0 |
		xargs -0 cat | wc -l
}

src=$(count -not -name '*_test.go')
echo "non-test Go lines: $src"
echo "test Go lines: $(count -name '*_test.go')"
if [ "$src" -gt "$ceiling" ]; then
	echo "size: $src non-test Go lines, more than the $ceiling ceiling" >&2
	exit 1
fi
