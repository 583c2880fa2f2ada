#!/usr/bin/env bash
# Lists the product functions that no experiment, claim test or bench
# workload reaches. It builds ixbench and the nested bench module with
# coverage over every ix/... package, runs every experiment at quick
# scale, all six bench workloads for one second each and the claim
# tests, merges the three profiles, and prints the total statement
# coverage, the number of unreached functions and the list.
#
#   bash scripts/unreached.sh
#
# The analyzers under internal/analysis run under go vet, not in an
# experiment, so the list leaves them out.
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
grep -v '^ix/internal/analysis/' "$d/func.txt" | awk '$NF == "0.0%"' > "$d/unreached.txt"

tail -1 "$d/func.txt"
echo "unreached functions: $(wc -l < "$d/unreached.txt")"
cat "$d/unreached.txt"
