package core

import (
	"fmt"
	"testing"

	"rtsm/internal/workload"
)

// FuzzRepair throws randomized staleness at the incremental remapping
// engine and checks its core contract: whatever Repair returns as
// feasible must actually commit against the snapshot it was repaired to
// (Validate reports no violation), and the act of repairing must not
// consume any of the snapshot's resources — Repair plans on clones, the
// snapshot platform is an input, not a scratchpad.
//
// The scenario mirrors the admission pipeline's race: a mapping is
// computed against an empty platform, competing applications then claim
// resources, and the now-stale mapping is refit to a snapshot of the
// loaded platform. The fuzzer controls the mesh geometry, the stale
// mapping's structure and how much competition lands in between.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), 6, 3, 2, false)
	f.Add(int64(123), 8, 5, 6, true)
	f.Add(int64(7), 4, 3, 0, false) // nothing changed: verbatim return path
	f.Add(int64(42), 6, 4, 9, true) // heavy competition: repair may refuse
	f.Fuzz(func(t *testing.T, seed int64, mesh, procs, competitors int, regioned bool) {
		mesh = 4 + abs(mesh)%5   // 4..8
		procs = 2 + abs(procs)%4 // 2..5
		competitors = abs(competitors) % 10
		var plat = workload.SyntheticPlatform(mesh, mesh, seed)
		if regioned {
			plat = workload.SyntheticRegionPlatform(mesh, mesh, seed, (mesh+1)/2)
		}
		src, sink := "SRC0", "SINK0"

		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: procs, Seed: seed,
			MaxUtil: 0.2, PeriodNs: 40_000, SrcTile: src, SinkTile: sink,
		})
		app.Name = "stale"
		m := &Mapper{Lib: lib}
		res, err := m.Map(app, plat)
		if err != nil || !res.Feasible {
			t.Skip("fixture not mappable with this geometry")
		}

		// Competing admissions claim resources after the stale mapping's
		// snapshot; each one actually commits, so the staleness is real.
		for i := 0; i < competitors; i++ {
			capp, clib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeChain, Processes: 2 + i%3, Seed: seed + int64(i) + 1,
				MaxUtil: 0.2, PeriodNs: 40_000, SrcTile: src, SinkTile: sink,
			})
			capp.Name = fmt.Sprintf("competitor-%d", i)
			cm := &Mapper{Lib: clib}
			cres, cerr := cm.Map(capp, plat)
			if cerr != nil || !cres.Feasible {
				continue
			}
			if Apply(plat, cres) != nil {
				continue // lost the hypothetical race; platform unchanged
			}
		}

		snap := plat.Snapshot()
		before := snap.Plat.Residual()
		stale, err := NewPlan(snap.Plat, res)
		if err != nil {
			t.Fatalf("NewPlan on a feasible mapping: %v", err)
		}
		fits := len(stale.Violations(snap.Plat)) == 0
		rep, err := m.Repair(res, snap)
		if after := snap.Plat.Residual(); !after.Equal(before) {
			t.Fatal("Repair mutated the snapshot's residual state")
		}
		// The one staleness signal: the stale mapping comes back verbatim
		// exactly when its plan has no violations on the snapshot.
		if fits && (err != nil || rep != res) {
			t.Fatalf("stale plan has no violations, yet Repair returned %p, %v", rep, err)
		}
		if !fits && rep == res {
			t.Fatal("stale plan has violations, yet Repair returned it verbatim")
		}
		if err != nil {
			return // repair refused: the caller falls back to a full map
		}
		if !rep.Feasible {
			return // honest infeasible verdict, like Map's
		}
		// The contract: a feasible repaired mapping commits against the
		// snapshot it was repaired to.
		if verr := Validate(snap.Plat, rep); verr != nil {
			t.Fatalf("repaired mapping does not validate against its snapshot: %v", verr)
		}
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
