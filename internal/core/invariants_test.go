package core

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// TestMappingInvariants sweeps synthetic instances of all shapes and
// checks the structural invariants every returned mapping must satisfy,
// feasible or not. This is the mapper's contract with its callers.
func TestMappingInvariants(t *testing.T) {
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}
	checked := 0
	for _, shape := range shapes {
		for seed := int64(0); seed < 10; seed++ {
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: shape, Processes: 7, Seed: seed})
			plat := workload.SyntheticPlatform(4, 3, seed*13)
			res, err := NewMapper(lib).Map(app, plat)
			if err != nil {
				continue // instance/platform mismatch: nothing to check
			}
			checked++
			name := app.Name

			// 1. Adequacy: implementation type matches tile type.
			if !res.Mapping.Adequate(plat) {
				t.Errorf("%s: mapping not adequate", name)
			}
			// 2. Completeness when feasible: every mappable process has
			// an implementation and a tile; every stream channel a route
			// entry and a buffer.
			if res.Feasible {
				for _, p := range app.MappableProcesses() {
					if res.Mapping.Impl[p.ID] == nil {
						t.Errorf("%s: %s has no implementation", name, p.Name)
					}
					if _, ok := res.Mapping.Tile[p.ID]; !ok {
						t.Errorf("%s: %s has no tile", name, p.Name)
					}
				}
				for _, c := range app.StreamChannels() {
					if _, ok := res.Mapping.Route[c.ID]; !ok {
						t.Errorf("%s: channel %s unrouted", name, c.Name)
					}
					if res.Mapping.Buffers[c.ID] <= 0 {
						t.Errorf("%s: channel %s has no buffer", name, c.Name)
					}
				}
				// 3. Adherence once committed to the caller's platform.
				if !res.Mapping.Adherent(applied(t, plat, res)) {
					t.Errorf("%s: mapping not adherent", name)
				}
				// 4. The verified period honours the QoS constraint.
				if res.Analysis.Period > float64(app.QoS.PeriodNs) {
					t.Errorf("%s: feasible but period %.0f > %d", name, res.Analysis.Period, app.QoS.PeriodNs)
				}
			}
			// 5. Routes are contiguous and respect the mesh.
			for cid, path := range res.Mapping.Route {
				for i, lid := range path.Links {
					l := plat.Link(lid)
					if l.From != path.Routers[i] || l.To != path.Routers[i+1] {
						t.Errorf("%s: channel %d has a discontiguous route", name, cid)
					}
				}
				c := app.Channel(cid)
				if st, ok := res.Mapping.Tile[c.Src]; ok && path.Hops() > 0 {
					if plat.Tile(st).Router != path.Routers[0] {
						t.Errorf("%s: channel %d route does not start at the source tile", name, cid)
					}
				}
			}
			// 6. The caller's platform is untouched.
			for _, tile := range plat.Tiles {
				if tile.ReservedMem != 0 || tile.Occupants != 0 || tile.ReservedUtil != 0 {
					t.Fatalf("%s: caller platform mutated", name)
				}
			}
			// 7. Energy components are non-negative and total consistently.
			e := res.Energy
			if e.Processing < 0 || e.Communication < 0 || e.Idle < 0 {
				t.Errorf("%s: negative energy component %+v", name, e)
			}
			// 8. Occupancy limits hold even on infeasible attempts.
			occ := make(map[arch.TileID]int)
			for _, p := range app.MappableProcesses() {
				if tid, ok := res.Mapping.Tile[p.ID]; ok {
					occ[tid]++
				}
			}
			for tid, n := range occ {
				tile := plat.Tile(tid)
				if tile.MaxOccupants > 0 && n > tile.MaxOccupants {
					t.Errorf("%s: tile %s holds %d processes (max %d)", name, tile.Name, n, tile.MaxOccupants)
				}
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d instances were checkable; sweep too weak", checked)
	}
}

// applied returns a copy of plat with res committed to it.
func applied(t *testing.T, plat *arch.Platform, res *Result) *arch.Platform {
	t.Helper()
	work := plat.Clone()
	if err := Apply(work, res); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return work
}

// TestApplyMatchesWorkingPlatform verifies that committing a mapping to a
// fresh platform reproduces exactly the reservations the mapper computed
// on its working copy — the property multi-application admission depends
// on. The working copy is pooled and never handed out, so the test runs
// one attempt on a platform of its own.
func TestApplyMatchesWorkingPlatform(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 6; seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeLayered, Processes: 8, Seed: seed})
		plat := workload.SyntheticPlatform(4, 4, seed)
		work := new(arch.Platform)
		res, _, err := NewMapper(lib).attempt(newAppIndex(app), plat, work, newTabu(), nil)
		if err != nil || !res.Feasible {
			continue
		}
		checked++
		fresh := applied(t, plat, res)
		for i, tile := range fresh.Tiles {
			want := work.Tiles[i]
			if tile.ReservedMem != want.ReservedMem {
				t.Errorf("seed %d: tile %s mem %d != working %d", seed, tile.Name, tile.ReservedMem, want.ReservedMem)
			}
			if tile.Occupants != want.Occupants {
				t.Errorf("seed %d: tile %s occupants %d != working %d", seed, tile.Name, tile.Occupants, want.Occupants)
			}
			if diff := tile.ReservedUtil - want.ReservedUtil; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("seed %d: tile %s util %v != working %v", seed, tile.Name, tile.ReservedUtil, want.ReservedUtil)
			}
		}
		for i, l := range fresh.Links {
			if l.ReservedBps != work.Links[i].ReservedBps {
				t.Errorf("seed %d: link %d bps %d != working %d", seed, l.ID, l.ReservedBps, work.Links[i].ReservedBps)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no seed produced a feasible first attempt; sweep too weak")
	}
}

// TestBestResultKept: when several refinement rounds produce feasible
// mappings, the cheapest one is returned.
func TestBestResultKept(t *testing.T) {
	app, lib, plat := bufferTrapFixture(t)
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("trap fixture should end feasible")
	}
	// Rerun with refinement disabled from the escaped configuration: the
	// returned energy must not beat the refined one by more than float
	// noise, since Map keeps the best feasible attempt.
	direct, err := (&Mapper{Lib: lib, Cfg: Config{NoRefinement: true}}).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Feasible && direct.Energy.Total() < res.Energy.Total()-1e-9 {
		t.Errorf("refined result (%v) worse than unrefined (%v)", res.Energy.Total(), direct.Energy.Total())
	}
}
