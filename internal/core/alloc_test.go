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
// 282 while every attempt cloned the platform, 277 while step 1 re-scored
// every process per pick, step 2 copied the assignment per trace row and
// the CSDF graph allocated per actor and channel, and is 105 now. The
// budget is 105 plus 10 %.
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
	if allocs > 115 {
		t.Errorf("Map allocates %v objects, want at most 115", allocs)
	}
	t.Logf("Map: %v objects", allocs)
}

// TestSyntheticMapAllocationBudget does the same for the map-cold case
// with the longest steps 1 and 2, a ten-process layered application on a
// 6×6 mesh hosting twelve background applications. It was 1 549 objects
// before step 1 went incremental and is 211 now; the budget is 211 plus
// 10 %.
func TestSyntheticMapAllocationBudget(t *testing.T) {
	plat := loadedPlatform(t, 6, 12)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeLayered, Processes: 10, Seed: 105, MaxUtil: 0.2, PeriodNs: 40_000,
	})
	m := NewMapper(lib)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Map(app, plat); err != nil {
			t.Fatalf("Map: %v", err)
		}
	})
	if allocs > 232 {
		t.Errorf("Map allocates %v objects, want at most 232", allocs)
	}
	t.Logf("Map: %v objects", allocs)
}

// TestPlanAllocationBudget keeps a plan three objects — the Plan and its
// two exactly sized delta slices — for the case study's BPSK1/2 mapping.
// It was 15 while the plan aggregated into two Go maps and an arena,
// exported sorted copies of them, and listed the mappable processes and
// stream channels into slices of their own.
func TestPlanAllocationBudget(t *testing.T) {
	mode := workload.Hiperlan2Modes[0]
	plat := workload.Hiperlan2Platform()
	res, err := NewMapper(workload.Hiperlan2Library(mode)).Map(workload.Hiperlan2(mode), plat)
	if err != nil || !res.Feasible {
		t.Fatalf("Map: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewPlan(plat, res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("NewPlan allocates %v objects, want at most 3", allocs)
	}
	t.Logf("NewPlan: %v objects", allocs)
}
