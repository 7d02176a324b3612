package core

import (
	"errors"
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// mapOnto maps a region-pinned synthetic chain onto the platform and
// returns the result, skipping the test when the mapper finds no feasible
// placement (the fixtures are sized so it always does).
func mapOnto(t *testing.T, plat *arch.Platform, seed int64, src, sink string) *Result {
	t.Helper()
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 3, Seed: seed,
		MaxUtil: 0.15, PeriodNs: 40_000, SrcTile: src, SinkTile: sink,
	})
	app.Name = fmt.Sprintf("plan-%s-%d", src, seed)
	m := &Mapper{Lib: lib}
	res, err := m.Map(app, plat)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if !res.Feasible {
		t.Fatalf("fixture mapping infeasible (src=%s sink=%s)", src, sink)
	}
	return res
}

// TestPlanFootprintRegionLocal checks that a mapping pinned inside one
// quadrant yields a plan whose footprint is an ascending, duplicate-free
// list of regions, and that the plan commits and releases cleanly.
func TestPlanFootprintRegionLocal(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	res := mapOnto(t, plat, 1, "SRC0", "SINK0")
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	fp := plan.Regions()
	if len(fp) == 0 {
		t.Fatal("empty footprint for a mapping with reservations")
	}
	for i := 1; i < len(fp); i++ {
		if fp[i] <= fp[i-1] {
			t.Fatalf("footprint not ascending unique: %v", fp)
		}
	}
	if err := plan.Validate(plat); err != nil {
		t.Fatalf("validate on fresh platform: %v", err)
	}
	plan.Commit(plat)
	plan.Release(plat)
	if err := plan.Validate(plat); err != nil {
		t.Fatalf("validate after release: %v", err)
	}
}

// TestPlanFootprintSpansAllRegions pins the stream endpoints in opposite
// corner quadrants, so the route alone must cross every quadrant boundary
// on its row/column; the footprint contains more than one region.
func TestPlanFootprintSpansAllRegions(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	// SRC0 sits in quadrant 0, SINK3 in quadrant 3: any route between
	// them leaves the source quadrant.
	res := mapOnto(t, plat, 2, "SRC0", "SINK3")
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if len(plan.Regions()) < 2 {
		t.Fatalf("corner-to-corner mapping footprint = %v, want ≥ 2 regions", plan.Regions())
	}
	if err := Apply(plat, res); err != nil {
		t.Fatalf("apply: %v", err)
	}
	Remove(plat, res)
}

// TestViolationsOrderIsDeterministic exhausts every tile and link of a
// multi-region mapping and checks the report's order — tiles by ID, each
// tile's dimensions in ResourceKind order, then links by ID — over many
// rounds, since the plan walks Go maps: repair and template selection
// read Violations[0] and the counts, and must see the same list each time.
func TestViolationsOrderIsDeterministic(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	res := mapOnto(t, plat, 2, "SRC0", "SINK3")
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range plat.Tiles {
		tl.ReservedMem, tl.ReservedUtil = tl.MemBytes, 1
		tl.ReservedInBps, tl.ReservedOutBps = tl.NICapBps, tl.NICapBps
	}
	for _, l := range plat.Links {
		l.ReservedBps = l.CapBps
	}
	for round := 0; round < 50; round++ {
		vs := plan.Violations(plat)
		if len(vs) < 4 {
			t.Fatalf("only %d violations on an exhausted platform; fixture broken", len(vs))
		}
		for i := 1; i < len(vs); i++ {
			a, b := vs[i-1], vs[i]
			ordered := a.Link < 0 && b.Link >= 0 ||
				a.Link < 0 && b.Link < 0 && (a.Tile < b.Tile || a.Tile == b.Tile && a.Kind < b.Kind) ||
				a.Link >= 0 && b.Link >= 0 && a.Link < b.Link
			if !ordered {
				t.Fatalf("round %d: violation %d (%v) does not sort before %d (%v)", round, i-1, a, i, b)
			}
		}
	}
}

// TestConflictErrorReportsRegions exhausts one tile and checks the
// resulting ConflictError attributes the violation to the tile's region.
func TestConflictErrorReportsRegions(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	res := mapOnto(t, plat, 3, "SRC2", "SINK2")
	// Exhaust the memory of every tile the mapping uses.
	var usedRegions []arch.RegionID
	for _, tid := range res.Mapping.Tile {
		tl := plat.Tile(tid)
		tl.ReservedMem = tl.MemBytes
		usedRegions = append(usedRegions, plat.RegionOfTile(tid))
	}
	err := Apply(plat, res)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("want *ConflictError, got %v", err)
	}
	if len(conflict.Regions) == 0 {
		t.Fatal("conflict reports no regions")
	}
	want := make(map[arch.RegionID]bool)
	for _, r := range usedRegions {
		want[r] = true
	}
	for _, r := range conflict.Regions {
		if !want[r] {
			t.Errorf("conflict names region %d which holds no conflicted tile", r)
		}
	}
	for _, v := range conflict.Violations {
		if v.Kind != ResLink && v.Region != plat.RegionOfTile(v.Tile) {
			t.Errorf("violation on tile %d carries region %d, want %d",
				v.Tile, v.Region, plat.RegionOfTile(v.Tile))
		}
	}
}

// TestRepairRegionShortcut checks the region-aware early-out: a change
// confined to a foreign region leaves a stale mapping committable
// verbatim, so Repair returns it unmodified.
func TestRepairRegionShortcut(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	res := mapOnto(t, plat, 4, "SRC0", "SINK0")
	// Perturb a region-3 tile only (no tile of the mapping lives there:
	// the footprint is confined to quadrant 0's side of the mesh).
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	for _, r := range plan.Regions() {
		if r == 3 {
			t.Skip("fixture mapping unexpectedly reaches region 3; shortcut not testable with this seed")
		}
	}
	victim := plat.RouterAt(arch.Pt(7, 7))
	for _, tid := range plat.TilesAtRouter(victim.ID) {
		plat.Tile(tid).ReservedMem = plat.Tile(tid).MemBytes
	}
	plat.BumpVersion()
	snap := plat.Snapshot()
	m := &Mapper{Lib: nil}
	rep, err := m.Repair(res, snap)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rep != res {
		t.Fatal("foreign-region change should return the stale mapping verbatim")
	}
}
