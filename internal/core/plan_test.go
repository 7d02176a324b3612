package core

import (
	"fmt"
	"slices"
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
// quadrant yields a plan that Overlaps a conflict on any tile or route
// link of the mapping and on none elsewhere — what preemption scopes its
// victims by — and that the plan commits and releases cleanly.
func TestPlanFootprintRegionLocal(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	res := mapOnto(t, plat, 1, "SRC0", "SINK0")
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	held := make(map[arch.TileID]bool)
	for _, tid := range res.Mapping.Tile {
		held[tid] = true
	}
	routed := make(map[arch.LinkID]bool)
	for _, path := range res.Mapping.Route {
		for _, lid := range path.Links {
			routed[lid] = true
		}
	}
	if len(held) == 0 || len(routed) == 0 {
		t.Fatal("fixture mapping holds no tile or no link")
	}
	if plan.Overlaps(nil) {
		t.Fatal("a plan overlaps an empty violation list")
	}
	for _, tl := range plat.Tiles {
		v := []ValidationError{{Kind: ResTileMem, Tile: tl.ID, TileName: tl.Name, Link: -1}}
		if plan.Overlaps(v) != held[tl.ID] {
			t.Fatalf("Overlaps(conflict on %s) = %v, want %v", tl.Name, !held[tl.ID], held[tl.ID])
		}
	}
	for _, l := range plat.Links {
		v := []ValidationError{{Kind: ResLink, Tile: arch.NoTile, Link: l.ID}}
		if plan.Overlaps(v) != routed[l.ID] {
			t.Fatalf("Overlaps(conflict on link %d) = %v, want %v", l.ID, !routed[l.ID], routed[l.ID])
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

// TestViolationsOrderIsDeterministic exhausts every tile and link of a
// multi-region mapping and checks the report's order — tiles by ID, each
// tile's dimensions in ResourceKind order, then links by ID — over many
// rounds: repair and template selection read Violations[0] and the
// counts, and must see the same list each time, which the plan's sorted
// deltas give by construction.
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

// TestRepairRegionShortcut pins Repair's one staleness signal: the stale
// result comes back pointer-identical exactly when its plan has no
// violations on the snapshot. A change confined to a foreign region and a
// change on the mapping's own tiles that still leaves room both return it
// verbatim; exhausting a tile the mapping places a process on does not.
func TestRepairRegionShortcut(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 3, Seed: 4,
		MaxUtil: 0.15, PeriodNs: 40_000, SrcTile: "SRC0", SinkTile: "SINK0",
	})
	m := &Mapper{Lib: lib}
	res, err := m.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("fixture mapping: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	repair := func(stage string) *Result {
		t.Helper()
		snap := plat.Snapshot()
		fits := len(plan.Violations(snap.Plat)) == 0
		rep, err := m.Repair(res, snap)
		if fits && (err != nil || rep != res) {
			t.Fatalf("%s: no violations, want the stale mapping verbatim; got %p, %v", stage, rep, err)
		}
		if !fits && rep == res {
			t.Fatalf("%s: the plan has violations, yet Repair returned the stale mapping", stage)
		}
		return rep
	}
	repair("unchanged platform")

	// A region-3 router's tiles, which the quadrant-0 mapping never holds.
	for _, tl := range plat.Tiles {
		if tl.Router != plat.RouterAt(arch.Pt(7, 7)).ID {
			continue
		}
		if plan.UsesTile(tl.ID) {
			t.Fatalf("fixture mapping unexpectedly holds %s", tl.Name)
		}
		tl.ReservedMem = tl.MemBytes
	}
	plat.BumpVersion()
	repair("foreign-region change")

	// The mapping's own tiles change, but every reservation still fits.
	var own arch.TileID = arch.NoTile
	for _, p := range app.MappableProcesses() {
		own = res.Mapping.Tile[p.ID]
	}
	plat.Tile(own).ReservedMem++
	plat.BumpVersion()
	if rep := repair("own tile, still fitting"); rep != res {
		t.Fatal("fixture broken: one byte exhausted the tile")
	}

	plat.Tile(own).ReservedMem = plat.Tile(own).MemBytes
	plat.BumpVersion()
	if rep := repair("own tile exhausted"); rep == res {
		t.Fatal("fixture broken: an exhausted tile left no violation")
	}
}

// TestDeltaPlanDeltas: a plan rebuilt from deltas hands out what Deltas
// promises — sorted by resource, each resource once — whether the deltas
// came as a plan exported them, which it keeps without copying, or
// shuffled and split, as only a damaged journal would hold them; and both
// release what the original committed.
func TestDeltaPlanDeltas(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	pristine := plat.Clone()
	plan, err := NewPlan(plat, mapOnto(t, plat, 1, "SRC0", "SINK0"))
	if err != nil {
		t.Fatal(err)
	}
	tiles, links := plan.Deltas()
	if again, _ := plan.Deltas(); &again[0] != &tiles[0] {
		t.Error("Deltas exported the plan a second time")
	}
	if len(tiles) < 2 || len(links) < 2 {
		t.Fatalf("fixture plan too small: %d tiles, %d links", len(tiles), len(links))
	}

	kept := NewDeltaPlan(tiles, links)
	if kt, kl := kept.Deltas(); &kt[0] != &tiles[0] || &kl[0] != &links[0] {
		t.Error("deltas in exported shape were copied")
	}

	// Reversed, and the first link's bandwidth split over two entries.
	shuffledTiles, shuffledLinks := slices.Clone(tiles), slices.Clone(links)
	slices.Reverse(shuffledTiles)
	slices.Reverse(shuffledLinks)
	half := links[0].Bps / 2
	shuffledLinks[len(shuffledLinks)-1].Bps -= half
	shuffledLinks = append(shuffledLinks, LinkReservation{Link: links[0].Link, Bps: half})
	rebuilt := NewDeltaPlan(shuffledTiles, shuffledLinks)
	if rt, rl := rebuilt.Deltas(); !slices.Equal(rt, tiles) || !slices.Equal(rl, links) {
		t.Errorf("rebuilt Deltas = %v, %v; want %v, %v", rt, rl, tiles, links)
	}

	for _, p := range []*Plan{kept, rebuilt} {
		plan.Commit(plat)
		p.Release(plat)
		if err := arch.PlatformsIdentical(plat, pristine); err != nil {
			t.Fatalf("a delta plan does not release what the original committed: %v", err)
		}
	}
}
