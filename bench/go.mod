// The benchmark is a module of its own so that it builds from its own
// directory and never joins the repository's `go build ./...`; the
// replace directive points it at the tree it measures.
module ix/bench

go 1.24

require ix v0.0.0

replace ix => ../
