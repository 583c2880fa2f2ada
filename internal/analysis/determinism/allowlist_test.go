package determinism

import (
	"maps"
	"slices"
	"testing"
)

// TestAllowlistIsExactlyShardRuntime pins the packages exempt from the
// goroutine, sync-import and wall-clock checks. A new entry is a design
// decision (see the comment on shardRuntimeAllowlist): it changes this
// test in the same reviewed diff.
func TestAllowlistIsExactlyShardRuntime(t *testing.T) {
	got := slices.Sorted(maps.Keys(shardRuntimeAllowlist))
	if want := []string{"sim/shard"}; !slices.Equal(got, want) {
		t.Fatalf("shardRuntimeAllowlist = %v, want %v", got, want)
	}
}
