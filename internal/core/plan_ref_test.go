package core

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// This file keeps the map-based planner the slice plan replaced, as the
// reference it is compared against: per-tile deltas in a Go map, per-link
// bandwidth in another, violations sorted after a map walk.

type refTileDelta struct {
	mem       int64
	util      float64
	occupants int
	inBps     int64
	outBps    int64
}

type refPlan struct {
	tiles map[arch.TileID]*refTileDelta
	links map[arch.LinkID]int64
}

func (pl *refPlan) tile(id arch.TileID) *refTileDelta {
	d := pl.tiles[id]
	if d == nil {
		d = &refTileDelta{}
		pl.tiles[id] = d
	}
	return d
}

func refPlanReservations(plat *arch.Platform, res *Result) (*refPlan, error) {
	mp := res.Mapping
	app := mp.App
	pl := &refPlan{tiles: make(map[arch.TileID]*refTileDelta), links: make(map[arch.LinkID]int64)}
	for _, p := range app.MappableProcesses() {
		im := mp.Impl[p.ID]
		tid, ok := mp.Tile[p.ID]
		if im == nil || !ok {
			return nil, fmt.Errorf("core: mapping incomplete for process %q", p.Name)
		}
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			return nil, err
		}
		d := pl.tile(tid)
		d.mem += im.MemBytes
		d.util += utilisationOf(plat.Tile(tid).CycleBudget(app.QoS.PeriodNs), cyc)
		d.occupants++
	}
	for _, c := range app.StreamChannels() {
		path, ok := mp.Route[c.ID]
		if !ok {
			continue
		}
		bps := channelBps(c, app.QoS.PeriodNs)
		for _, lid := range path.Links {
			pl.links[lid] += bps
		}
		if path.Hops() > 0 {
			pl.tile(mp.Tile[c.Src]).outBps += bps
			pl.tile(mp.Tile[c.Dst]).inBps += bps
		}
		if buf := mp.Buffers[c.ID]; buf > 0 {
			pl.tile(mp.Tile[c.Dst]).mem += buf * c.TokenBytes
		}
	}
	return pl, nil
}

func (pl *refPlan) violations(plat *arch.Platform) []ValidationError {
	var out []ValidationError
	for tid, d := range pl.tiles {
		t := plat.Tile(tid)
		if t.Failed {
			out = append(out, ValidationError{Kind: ResTileFailed, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.occupants)})
			continue
		}
		if t.ReservedMem+d.mem > t.MemBytes {
			out = append(out, ValidationError{Kind: ResTileMem, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.mem), Avail: float64(t.FreeMem())})
		}
		if t.ReservedUtil+d.util > 1.0+utilEps {
			out = append(out, ValidationError{Kind: ResTileUtil, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: d.util, Avail: 1.0 - t.ReservedUtil})
		}
		if t.MaxOccupants > 0 && int(t.Occupants)+d.occupants > t.MaxOccupants {
			out = append(out, ValidationError{Kind: ResTileOccupancy, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(d.occupants), Avail: float64(t.MaxOccupants - int(t.Occupants))})
		}
		if t.NICapBps > 0 && (t.ReservedInBps+d.inBps > t.NICapBps || t.ReservedOutBps+d.outBps > t.NICapBps) {
			need, avail := d.inBps, t.NICapBps-t.ReservedInBps
			if t.ReservedOutBps+d.outBps > t.NICapBps {
				need, avail = d.outBps, t.NICapBps-t.ReservedOutBps
			}
			out = append(out, ValidationError{Kind: ResTileNI, Tile: t.ID, TileName: t.Name, Link: -1,
				Need: float64(need), Avail: float64(avail)})
		}
	}
	for lid, bps := range pl.links {
		l := plat.Link(lid)
		if l.Failed {
			out = append(out, ValidationError{Kind: ResLinkFailed, Tile: arch.NoTile, Link: lid,
				Need: float64(bps)})
			continue
		}
		if l.ReservedBps+bps > l.CapBps {
			out = append(out, ValidationError{Kind: ResLink, Tile: arch.NoTile, Link: lid,
				Need: float64(bps), Avail: float64(l.FreeBps())})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Link >= 0) != (b.Link >= 0) {
			return b.Link >= 0
		}
		if a.Tile != b.Tile {
			return a.Tile < b.Tile
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.Kind < b.Kind
	})
	return out
}

func (pl *refPlan) commit(plat *arch.Platform, sign int64) {
	for tid, d := range pl.tiles {
		t := plat.Tile(tid)
		t.ReservedMem += sign * d.mem
		t.ReservedUtil += float64(sign) * d.util
		t.Occupants += int32(sign) * int32(d.occupants)
		t.ReservedInBps += sign * d.inBps
		t.ReservedOutBps += sign * d.outBps
	}
	for lid, bps := range pl.links {
		plat.Link(lid).ReservedBps += sign * bps
	}
	plat.BumpVersion()
}

// deltas exports the reference plan the way the journal records it.
func (pl *refPlan) deltas() ([]TileReservation, []LinkReservation) {
	var tiles []TileReservation
	for _, tid := range slices.Sorted(maps.Keys(pl.tiles)) {
		d := pl.tiles[tid]
		tiles = append(tiles, TileReservation{Tile: tid, MemBytes: d.mem, Util: d.util,
			Occupants: d.occupants, InBps: d.inBps, OutBps: d.outBps})
	}
	var links []LinkReservation
	for _, lid := range slices.Sorted(maps.Keys(pl.links)) {
		links = append(links, LinkReservation{Link: lid, Bps: pl.links[lid]})
	}
	return tiles, links
}

// sameDeltas compares two delta sets bit for bit, Util by its bits.
func sameDeltas(at []TileReservation, al []LinkReservation, bt []TileReservation, bl []LinkReservation) bool {
	sameTile := func(a, b TileReservation) bool {
		return a.Tile == b.Tile && a.MemBytes == b.MemBytes && math.Float64bits(a.Util) == math.Float64bits(b.Util) &&
			a.Occupants == b.Occupants && a.InBps == b.InBps && a.OutBps == b.OutBps
	}
	return slices.EqualFunc(at, bt, sameTile) && slices.Equal(al, bl)
}

// planStates returns the platform as given plus three copies that stress
// validation: every resource exhausted, the first tile and link the plan
// holds failed, and every tile and link the plan holds filled to one unit
// short of what it adds.
func planStates(plat *arch.Platform, plan *Plan) map[string]*arch.Platform {
	exhausted := plat.Clone()
	for _, tl := range exhausted.Tiles {
		tl.ReservedMem, tl.ReservedUtil = tl.MemBytes, 1
		tl.ReservedInBps, tl.ReservedOutBps = tl.NICapBps, tl.NICapBps
		if tl.MaxOccupants > 0 {
			tl.Occupants = int32(tl.MaxOccupants)
		}
	}
	for _, l := range exhausted.Links {
		l.ReservedBps = l.CapBps
	}
	tiles, links := plan.Deltas()
	failed := plat.Clone()
	if len(tiles) > 0 {
		failed.FailTile(tiles[0].Tile)
	}
	if len(links) > 0 {
		failed.FailLink(links[0].Link)
	}
	tight := plat.Clone()
	for _, d := range tiles {
		tl := tight.Tile(d.Tile)
		tl.ReservedMem = max(tl.MemBytes-d.MemBytes+1, 0)
		tl.ReservedUtil = 1 - d.Util/2
		tl.ReservedOutBps = max(tl.NICapBps-d.OutBps+1, 0)
	}
	for _, d := range links {
		l := tight.Link(d.Link)
		l.ReservedBps = max(l.CapBps-d.Bps+1, 0)
	}
	return map[string]*arch.Platform{"as given": plat, "exhausted": exhausted, "failed": failed, "tight": tight}
}

// requireMatchesMapPlanner holds the slice plan of res to the map planner:
// bit-identical deltas, and on every state of planStates equal
// violations, identical committed platforms and the same answer from
// UsesTile and UsesLink for every tile and link.
func requireMatchesMapPlanner(t *testing.T, plat *arch.Platform, res *Result) {
	t.Helper()
	plan, err := NewPlan(plat, res)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	ref, err := refPlanReservations(plat, res)
	if err != nil {
		t.Fatalf("map planner: %v", err)
	}
	gt, gl := plan.Deltas()
	wt, wl := ref.deltas()
	if !sameDeltas(gt, gl, wt, wl) {
		t.Fatalf("deltas differ:\nslice %v %v\nmap   %v %v", gt, gl, wt, wl)
	}
	for _, tl := range plat.Tiles {
		if _, held := ref.tiles[tl.ID]; plan.UsesTile(tl.ID) != held {
			t.Fatalf("UsesTile(%s) = %v, map planner %v", tl.Name, !held, held)
		}
	}
	for _, l := range plat.Links {
		if _, held := ref.links[l.ID]; plan.UsesLink(l.ID) != held {
			t.Fatalf("UsesLink(%d) = %v, map planner %v", l.ID, !held, held)
		}
	}
	for name, state := range planStates(plat, plan) {
		got, want := plan.Violations(state), ref.violations(state)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: violations differ:\nslice %v\nmap   %v", name, got, want)
		}
		a, b := state.Clone(), state.Clone()
		plan.Commit(a)
		ref.commit(b, +1)
		if err := arch.PlatformsIdentical(a, b); err != nil {
			t.Fatalf("%s: committed platforms differ: %v", name, err)
		}
		plan.Release(a)
		ref.commit(b, -1)
		if err := arch.PlatformsIdentical(a, b); err != nil {
			t.Fatalf("%s: released platforms differ: %v", name, err)
		}
	}
}

// TestPlanMatchesMapPlanner runs the differential over the HIPERLAN/2
// modes, map-cold-like synthetic cases on empty and loaded meshes,
// repaired results, and a partially built mapping planned leniently.
func TestPlanMatchesMapPlanner(t *testing.T) {
	for _, mode := range workload.Hiperlan2Modes {
		plat := workload.Hiperlan2Platform()
		res, err := NewMapper(workload.Hiperlan2Library(mode)).Map(workload.Hiperlan2(mode), plat)
		if err != nil || !res.Feasible {
			t.Fatalf("%s: feasible=%v err=%v", mode.Name, res != nil && res.Feasible, err)
		}
		t.Run(mode.Name, func(t *testing.T) { requireMatchesMapPlanner(t, plat, res) })
	}

	cases := 0
	for _, background := range []int{0, 12} {
		for _, shape := range []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered} {
			for procs := 3; procs <= 10; procs += 7 {
				for seed := int64(100); seed < 103; seed++ {
					plat := loadedPlatform(t, 6, background)
					app, lib := workload.Synthetic(workload.SynthOptions{
						Shape: shape, Processes: procs, Seed: seed, MaxUtil: 0.2, PeriodNs: 40_000})
					res, err := NewMapper(lib).Map(app, plat)
					if err != nil || !res.Feasible {
						continue
					}
					cases++
					requireMatchesMapPlanner(t, plat, res)
				}
			}
		}
	}
	if cases < 12 {
		t.Fatalf("only %d synthetic cases mapped; fixture broken", cases)
	}

	repaired := 0
	for seed := int64(1); seed <= 6; seed++ {
		plat := workload.SyntheticRegionPlatform(8, 8, seed, 4)
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 4, Seed: seed, MaxUtil: 0.2, PeriodNs: 40_000,
			SrcTile: "SRC0", SinkTile: "SINK0"})
		m := NewMapper(lib)
		res, err := m.Map(app, plat)
		if err != nil || !res.Feasible {
			continue
		}
		// Competitors take the stale mapping's own tiles.
		for i := 0; i < 6; i++ {
			capp, clib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeChain, Processes: 2 + i%3, Seed: seed + int64(i) + 1,
				MaxUtil: 0.3, PeriodNs: 40_000, SrcTile: "SRC0", SinkTile: "SINK0"})
			if cres, err := NewMapper(clib).Map(capp, plat); err == nil && cres.Feasible {
				_ = Apply(plat, cres)
			}
		}
		rep, err := m.Repair(res, plat.Snapshot())
		if err != nil || !rep.Feasible || rep == res {
			continue
		}
		repaired++
		requireMatchesMapPlanner(t, plat, rep)
	}
	if repaired == 0 {
		t.Fatal("no stale mapping was repaired; fixture broken")
	}

	// A partially built mapping: both planners refuse it.
	plat := workload.SyntheticPlatform(6, 6, 7)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 3, MaxUtil: 0.2, PeriodNs: 40_000})
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("fixture mapping: %v", err)
	}
	partial := *res
	mp := *res.Mapping
	mp.Impl = maps.Clone(mp.Impl)
	delete(mp.Impl, app.MappableProcesses()[1].ID)
	partial.Mapping = &mp
	if _, err := NewPlan(plat, &partial); err == nil {
		t.Fatal("NewPlan accepted a partially built mapping")
	}
	if _, err := refPlanReservations(plat, &partial); err == nil {
		t.Fatal("the map planner accepted a partially built mapping")
	}
}
