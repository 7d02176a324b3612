package core

import (
	"testing"

	"rtsm/internal/workload"
)

// TestRepairReturnsValidMappingVerbatim pins the fast path: when the
// platform is resource-identical to the state the mapping was computed
// against, Repair hands the stale result back unchanged.
func TestRepairReturnsValidMappingVerbatim(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 1, MaxUtil: 0.3,
	})
	m := NewMapper(lib)
	res, err := m.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	rep, err := m.Repair(res, plat.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if rep != res {
		t.Fatal("Repair should return an unconflicted mapping verbatim")
	}
}

// TestRepairSalvagesAfterConflict drives the paper's feedback idea across
// commits: a mapping invalidated by a competing admission is repaired by
// re-placing only the conflicting processes, the rest stays pinned, and
// the repaired mapping commits.
func TestRepairSalvagesAfterConflict(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 5, Seed: 3, MaxUtil: 0.3,
	})
	m := NewMapper(lib)
	stale, err := m.Map(app, plat)
	if err != nil || !stale.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	// A competing admission saturates exactly one tile the mapping uses;
	// every other placement still fits.
	victim := stale.Mapping.Tile[app.MappableProcesses()[0].ID]
	vt := plat.Tile(victim)
	vt.ReservedUtil = 1.0
	vt.ReservedMem = vt.MemBytes
	plat.BumpVersion()
	if err := Validate(plat, stale); err == nil {
		t.Fatal("stale mapping should conflict on the saturated tile")
	}

	rep, err := m.Repair(stale, plat.Snapshot())
	if err != nil {
		t.Fatalf("repair failed outright: %v", err)
	}
	if !rep.Feasible {
		t.Fatalf("repair infeasible: %v", rep.Trace.Notes)
	}
	if !rep.Repaired {
		t.Fatal("result not marked repaired")
	}
	if rep.Pinned == 0 {
		t.Fatal("repair pinned nothing; that is a full remap")
	}
	if err := Apply(plat, rep); err != nil {
		t.Fatalf("repaired mapping does not commit: %v", err)
	}
	// Nothing may remain on the saturated tile, and the pinned processes
	// kept their stale placement.
	kept := 0
	for pid, tid := range rep.Mapping.Tile {
		if tid == victim {
			t.Fatalf("process %d still on saturated tile %d", pid, victim)
		}
		if stale.Mapping.Tile[pid] == tid {
			kept++
		}
	}
	if kept < rep.Pinned {
		t.Fatalf("only %d placements match the stale mapping, Pinned claims %d", kept, rep.Pinned)
	}
}

// TestRepairNeverProducesInvalidMapping is the safety property the
// admission pipeline relies on: whatever Repair returns as feasible must
// pass Validate — and therefore Apply — on the platform it was repaired
// against. Exercised over many random stale-mapping/competitor pairs.
func TestRepairNeverProducesInvalidMapping(t *testing.T) {
	pristine := workload.SyntheticPlatform(4, 4, 7)
	engaged, feasible := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape:     workload.ShapeChain,
			Processes: 3 + int(seed)%4,
			Seed:      seed,
			MaxUtil:   0.35,
		})
		m := NewMapper(lib)
		stale, err := m.Map(app, pristine)
		if err != nil || !stale.Feasible {
			continue
		}
		// Load the platform with competitors so the stale mapping's
		// resources are partly gone.
		live := pristine.Clone()
		for j := int64(1); j <= 3; j++ {
			capp, clib := workload.Synthetic(workload.SynthOptions{
				Shape:     workload.ShapeChain,
				Processes: 3 + int(seed+j)%4,
				Seed:      seed + 100*j,
				MaxUtil:   0.35,
			})
			capp.Name = "competitor"
			if cres, err := NewMapper(clib).Map(capp, live); err == nil && cres.Feasible {
				if err := Apply(live, cres); err != nil {
					t.Fatalf("seed %d: competitor apply: %v", seed, err)
				}
			}
		}
		if err := Validate(live, stale); err == nil {
			continue // no conflict to repair this round
		}
		engaged++
		snap := live.Snapshot()
		rep, err := m.Repair(stale, snap)
		if err != nil {
			continue // nothing salvageable: caller would full-remap
		}
		if !rep.Feasible {
			continue
		}
		feasible++
		if err := Validate(snap.Plat, rep); err != nil {
			t.Fatalf("seed %d: Repair produced a mapping Validate rejects: %v", seed, err)
		}
		if err := Apply(live, rep); err != nil {
			t.Fatalf("seed %d: repaired mapping does not commit: %v", seed, err)
		}
	}
	if engaged == 0 {
		t.Fatal("property test never constructed a conflict; workload too loose")
	}
	if feasible == 0 {
		t.Fatal("repair never produced a feasible mapping; repair path effectively dead")
	}
}

// TestRepairRefusesExhaustedPinnedNI: an exhausted network interface on
// a tile hosting only pinned processes (the shared SRC0 source) cannot be
// relieved by re-placing anything — the application's demand on it is
// fixed. Repair must refuse outright so the manager degrades to the full
// mapper (whose step 3 rejects promptly with the honest reason), instead
// of returning a "feasible" mapping that re-demands the exhausted
// bandwidth and conflicts on every commit.
func TestRepairRefusesExhaustedPinnedNI(t *testing.T) {
	plat := workload.SyntheticPlatform(4, 4, 7)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 1, MaxUtil: 0.3,
	})
	m := NewMapper(lib)
	stale, err := m.Map(app, plat)
	if err != nil || !stale.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	// The mapped chain delivers into SINK0 over a multi-hop route, so the
	// mapping demands inbound NI bandwidth on the pinned sink tile.
	sink := plat.TileByName("SINK0")
	sink.ReservedInBps = sink.NICapBps
	plat.BumpVersion()
	if err := Validate(plat, stale); err == nil {
		t.Fatal("stale mapping should conflict on the saturated sink NI")
	}
	rep, err := m.Repair(stale, plat.Snapshot())
	if err == nil {
		t.Fatalf("Repair should refuse an irreducible NI conflict, returned feasible=%v", rep.Feasible)
	}
}

// TestRepairDegradesToFullRemap: when every placement conflicts, Repair
// refuses (nothing to salvage) so the caller can run the full mapper.
func TestRepairDegradesToFullRemap(t *testing.T) {
	plat := workload.Hiperlan2Platform()
	mode := workload.Hiperlan2Modes[0]
	lib := workload.Hiperlan2Library(mode)
	app := workload.Hiperlan2(mode)
	m := NewMapper(lib)
	res, err := m.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("map failed: %v", err)
	}
	// Saturate every tile and link the mapping uses.
	for _, tile := range plat.Tiles {
		tile.ReservedUtil = 1.0
		tile.ReservedMem = tile.MemBytes
		if tile.MaxOccupants > 0 {
			tile.Occupants = int32(tile.MaxOccupants)
		}
	}
	for _, l := range plat.Links {
		l.ReservedBps = l.CapBps
	}
	plat.BumpVersion()
	if _, err := m.Repair(res, plat.Snapshot()); err == nil {
		t.Fatal("Repair should refuse when nothing is salvageable")
	}
}
