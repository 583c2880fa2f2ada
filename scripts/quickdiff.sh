#!/usr/bin/env bash
# Diffs the fixed-seed output of every experiment between a git revision
# and the working tree: it builds cmd/ixbench from <rev> and from the
# tree, runs `-experiment all -scale quick` on each, strips the
# wall-time notes (host timing, the only part that varies run to run)
# and prints the diff. Exits 0 when the outputs are identical, 1 when
# they differ.
#
#   bash scripts/quickdiff.sh <rev>
#
# <rev> is extracted with git archive into a temporary directory, so the
# repository gains no worktree and the tree under test may be dirty.
set -euo pipefail
rev="${1:?usage: scripts/quickdiff.sh <rev>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
d="$(mktemp -d)"
trap 'rm -rf "$d"' EXIT
mkdir -p "$d/src"
cd "$root"

git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$d/src"
(cd "$d/src" && go build -o "$d/old" ./cmd/ixbench)
go build -o "$d/new" ./cmd/ixbench

run() { "$1" -experiment all -scale quick | grep -v 'wall time'; }
run "$d/old" > "$d/old.txt"
run "$d/new" > "$d/new.txt"
diff "$d/old.txt" "$d/new.txt"
