//go:build !race

package core

import (
	"testing"

	"rtsm/internal/workload"
)

// TestRepairUnchangedAllocationBudget keeps Repair's answer for a mapping
// that still fits as cheap as asking: one plan, validated. Remembering a
// residual view of the mesh per result and diffing it here cost two
// full-mesh views and a diff on top; the race detector changes
// allocation counts, so the file is built without it.
func TestRepairUnchangedAllocationBudget(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(12, 12, 123, 3)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 5,
		MaxUtil: 0.15, PeriodNs: 40_000, SrcTile: "SRC0", SinkTile: "SINK0",
	})
	m := &Mapper{Lib: lib}
	res, err := m.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("fixture mapping: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	snap := plat.Snapshot()
	plan := testing.AllocsPerRun(50, func() {
		if _, err := NewPlan(snap.Plat, res); err != nil {
			t.Fatal(err)
		}
	})
	repair := testing.AllocsPerRun(50, func() {
		if rep, err := m.Repair(res, snap); err != nil || rep != res {
			t.Fatalf("Repair on an unchanged snapshot = %p, %v; want the stale mapping", rep, err)
		}
	})
	if repair > plan {
		t.Errorf("Repair on an unchanged snapshot allocates %v objects, NewPlan alone %v", repair, plan)
	}
	t.Logf("Repair: %v objects, NewPlan: %v", repair, plan)
}

// TestHiperlan2MapAllocationBudget keeps a cold Map of the case study
// cheap in objects: it was 17 114 while step 4 allocated per firing, 398
// while each working clone copied the mesh struct by struct, 368 while
// step 3 searched on a boxed heap and step 2 built two maps per candidate,
// 282 while every attempt cloned the platform, and is 277 now that the
// working copy is pooled. The budget is 277 plus 10 %.
func TestHiperlan2MapAllocationBudget(t *testing.T) {
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	plat := workload.Hiperlan2Platform()
	m := NewMapper(workload.Hiperlan2Library(mode))
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := m.Map(app, plat); err != nil || !res.Feasible {
			t.Fatalf("Map: %v", err)
		}
	})
	if allocs > 305 {
		t.Errorf("Map allocates %v objects, want at most 305", allocs)
	}
	t.Logf("Map: %v objects", allocs)
}
