//go:build !race

package arch_test

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

var cloneSink *arch.Platform

// TestCloneAllocationBudget pins what makes a snapshot cheap: a copy is
// the Platform struct, one slab of tile states, one of link states and
// the two pointer slices over them — the same handful of objects on any
// mesh, never one per tile or link. The race detector changes allocation
// counts, so the file is built without it.
func TestCloneAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		plat *arch.Platform
	}{
		{"6x6", workload.SyntheticPlatform(6, 6, 1)},
		{"12x12 regions", workload.SyntheticRegionPlatform(12, 12, 1, 3)},
		{"16x16 regions", workload.SyntheticRegionPlatform(16, 16, 1, 4)},
	} {
		allocs := testing.AllocsPerRun(50, func() { cloneSink = c.plat.Clone() })
		const budget = 6
		if allocs > budget {
			t.Errorf("%s: Clone allocates %v objects, want at most %d", c.name, allocs, budget)
		}
		t.Logf("%s: Clone of %d tiles, %d links: %v objects", c.name, len(c.plat.Tiles), len(c.plat.Links), allocs)
	}
}

// BenchmarkClone is the cost of a private snapshot (Platform.Snapshot,
// Manager.Snapshot) on the benchmark's 12×12 mesh; admissions and mapper
// attempts CopyInto recycled platforms instead.
func BenchmarkClone(b *testing.B) {
	plat := workload.SyntheticRegionPlatform(12, 12, 1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cloneSink = plat.Clone()
	}
}

var buildSink *arch.Platform

// TestPlatformBuildAllocationBudget pins what a restart pays to rebuild
// its mesh: NewMesh carves routers, links and adjacency lists out of a
// fixed handful of slabs whatever the size, and the synthetic generator
// attaches every tile in one AttachTiles call, its names carved from one
// string, so no object is allocated per tile. Measured 11 and 24
// objects (305 when every tile had its own name and index appends).
func TestPlatformBuildAllocationBudget(t *testing.T) {
	for _, c := range []struct {
		name   string
		build  func()
		budget float64
	}{
		{"NewMesh(12,12)", func() { buildSink = arch.NewMesh("m", 12, 12, 1) }, 20},
		{"SyntheticRegionPlatform(12,12,123,3)", func() { buildSink = workload.SyntheticRegionPlatform(12, 12, 123, 3) }, 30},
	} {
		allocs := testing.AllocsPerRun(20, c.build)
		if allocs > c.budget {
			t.Errorf("%s allocates %v objects, want at most %v", c.name, allocs, c.budget)
		}
		t.Logf("%s: %v objects", c.name, allocs)
	}
}
