package core

import (
	"reflect"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// TestScratchReuseAcrossMeshSizes maps on one working platform that is
// recycled from a 6×6 to an 8×8 mesh and back, as the pool recycles it
// between calls: growing reallocates the tile and link slabs, shrinking
// reslices the larger ones. Every result must validate against its own
// platform and equal a map on a never-used working platform — and still
// do so after the scratch is overwritten with another platform, so no
// result reaches into the copy it was computed on.
func TestScratchReuseAcrossMeshSizes(t *testing.T) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 5, Seed: 3, MaxUtil: 0.15, PeriodNs: 40_000})
	m := NewMapper(lib)
	scratch := new(arch.Platform)
	type mapped struct {
		plat      *arch.Platform
		got, want *Result
	}
	var runs []mapped
	for _, side := range []int{6, 8, 6} {
		plat := workload.SyntheticPlatform(side, side, 1)
		got, err := m.refine(newAppIndex(app), plat, scratch, nil, maxRefinements)
		if err != nil || !got.Feasible {
			t.Fatalf("%d×%d on recycled scratch: feasible=%v err=%v", side, side, got != nil && got.Feasible, err)
		}
		if len(scratch.Tiles) != len(plat.Tiles) || len(scratch.Links) != len(plat.Links) {
			t.Fatalf("%d×%d: scratch holds %d tiles, %d links; want %d, %d",
				side, side, len(scratch.Tiles), len(scratch.Links), len(plat.Tiles), len(plat.Links))
		}
		want, err := m.refine(newAppIndex(app), plat, new(arch.Platform), nil, maxRefinements)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mapped{plat, got, want})
	}
	check := func(when string) {
		t.Helper()
		for i, r := range runs {
			if err := Validate(r.plat, r.got); err != nil {
				t.Errorf("run %d %s: result does not validate on its platform: %v", i, when, err)
			}
			if !reflect.DeepEqual(r.got.Mapping, r.want.Mapping) || r.got.Energy != r.want.Energy ||
				!reflect.DeepEqual(r.got.Analysis, r.want.Analysis) {
				t.Errorf("run %d %s: mapping on recycled scratch differs from a fresh one", i, when)
			}
		}
	}
	check("after mapping")
	workload.SyntheticPlatform(8, 8, 99).CopyInto(scratch)
	for _, tile := range scratch.Tiles {
		tile.ReservedMem, tile.Occupants, tile.Failed = 1<<40, 99, true
	}
	for _, l := range scratch.Links {
		l.ReservedBps = -1
	}
	check("after the scratch was overwritten")
}
