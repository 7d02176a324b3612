//go:build !race

package noc

import (
	"testing"

	"rtsm/internal/arch"
)

// TestShortestAvailableAllocationBudget keeps the search on its pooled
// scratch: once that is sized, a path found costs its two slices and a
// search that fails only the error it returns. The race detector makes
// sync.Pool drop items, so the file is built without it.
func TestShortestAvailableAllocationBudget(t *testing.T) {
	p := arch.NewMesh("budget", 12, 12, 1000)
	from, to := p.RouterAt(arch.Pt(0, 0)).ID, p.RouterAt(arch.Pt(11, 11)).ID
	route := func(needBps int64, wantErr bool) func() {
		return func() {
			if _, err := ShortestAvailable(p, from, to, needBps); (err != nil) != wantErr {
				t.Fatalf("ShortestAvailable needing %d B/s: %v", needBps, err)
			}
		}
	}
	route(1, false)() // size the pooled scratch
	if allocs := testing.AllocsPerRun(100, route(1, false)); allocs > 2 {
		t.Errorf("a path found allocates %v objects, want at most 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, route(2000, true)); allocs > 1 {
		t.Errorf("a failed search allocates %v objects, want at most 1", allocs)
	}
}
