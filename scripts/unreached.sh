#!/usr/bin/env bash
# Lists the product functions that no experiment, claim test or bench
# workload reaches. It builds ixbench and the nested bench module with
# coverage over every ix/... package, runs every experiment at quick
# scale, all six bench workloads for one second each and the claim
# tests, merges the three profiles, and prints the total statement
# coverage, the number of unreached functions and the list, then the
# unmeasurable functions with their count: those whose body holds no
# statement, which go tool cover reads as 0.0 % whether they run or not.
#
#   bash scripts/unreached.sh
#
# The analyzers under internal/analysis run under go vet, not in an
# experiment, so the list leaves them out.
#
# The list is a policy: scripts/unreached.allow names every function
# allowed to stay unreached, one per line as its file, its name (a
# method as Type.Name) and the reason it stays. The script exits 1 when
# an unreached function is not listed there, or when a listed one is
# no longer unreached or no longer exists (a stale entry). Unmeasurable
# functions are outside the policy: coverage cannot say whether they
# run, so they are neither listed nor allowed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
d="$(mktemp -d)"
trap 'rm -rf "$d"' EXIT
mkdir -p "$d/ixbench" "$d/bench" "$d/claims"
cd "$root"

go build -cover -coverpkg=ix/... -o "$d/ixbench.bin" ./cmd/ixbench
GOCOVERDIR="$d/ixbench" "$d/ixbench.bin" -experiment all -scale quick > /dev/null
(cd bench && GOWORK=off go build -cover -coverpkg=ix/... -o "$d/bench.bin" .)
GOCOVERDIR="$d/bench" "$d/bench.bin" -seconds 1 -out "$d/bench.json" > /dev/null 2>&1
go test -short -run TestClaim -cover -coverpkg=ix/... ./internal/harness \
	-args -test.gocoverdir="$d/claims" > /dev/null
go tool covdata textfmt -i="$d/ixbench,$d/bench,$d/claims" -o "$d/merged.txt"

# go tool cover resolves packages from the root module, which does not
# contain the bench module's own packages.
grep -v '^ix/bench/' "$d/merged.txt" > "$d/product.txt"
go tool cover -func="$d/product.txt" > "$d/func.txt"
grep -v '^ix/internal/analysis/' "$d/func.txt" | awk '$NF == "0.0%"' > "$d/zero.txt"

# Key each function by its file and, for a method, Type.Name read from
# its declaration: the coverage report gives the line but no receiver.
# Mark one whose body holds no statement (only blanks and comments up to
# the closing brace) as unmeasurable.
awk -v root="$root" -v d="$d" '{
	split($1, loc, ":")
	file = substr(loc[1], 4) # drop the module path "ix/"
	src = ""
	empty = 1
	for (i = 0; (getline l < (root "/" file)) > 0; ) {
		if (++i == loc[2]) {
			src = l
			if (l ~ /[}][ \t]*$/) { empty = l ~ /[{][ \t]*[}][ \t]*$/; break }
		} else if (i > loc[2]) {
			if (l == "}") break
			if (l !~ /^[ \t]*(\/\/.*)?$/) { empty = 0; break }
		}
	}
	close(root "/" file)
	if (empty) { print > (d "/empty.txt"); next }
	print > (d "/unreached.txt")
	name = $2
	if (match(src, /^func \([^)]*\)/)) {
		recv = substr(src, RSTART + 6, RLENGTH - 7)
		sub(/^[^ ]* /, "", recv)
		gsub(/[*]|\[.*\]/, "", recv)
		name = recv "." name
	}
	print file, name > (d "/keys.unsorted")
}' "$d/zero.txt"
touch "$d/unreached.txt" "$d/empty.txt" "$d/keys.unsorted"
sort "$d/keys.unsorted" > "$d/keys.txt"

tail -1 "$d/func.txt"
echo "unreached functions: $(wc -l < "$d/unreached.txt")"
cat "$d/unreached.txt"
echo "unmeasurable functions (no statement in the body): $(wc -l < "$d/empty.txt")"
cat "$d/empty.txt"

awk '!/^#/ && NF { print $1, $2 }' "$root/scripts/unreached.allow" | sort > "$d/allowed.txt"
comm -23 "$d/keys.txt" "$d/allowed.txt" > "$d/unlisted.txt"
comm -13 "$d/keys.txt" "$d/allowed.txt" > "$d/stale.txt"
status=0
if [ -s "$d/unlisted.txt" ]; then
	echo "unreached but not in scripts/unreached.allow:" >&2
	sed 's/^/  /' "$d/unlisted.txt" >&2
	status=1
fi
if [ -s "$d/stale.txt" ]; then
	echo "stale entries in scripts/unreached.allow (reached or gone):" >&2
	sed 's/^/  /' "$d/stale.txt" >&2
	status=1
fi
exit "$status"
