package core

import (
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// FuzzPlanReservations throws randomized mappings at the commit-plan
// aggregation (NewPlan, the source of truth for what a mapping
// reserves) and checks its double-entry bookkeeping:
//
//   - the plan matches the map planner it replaced (plan_ref_test.go) on
//     deltas bit for bit, violations on loaded, exhausted and failed
//     platforms, committed platforms and UsesTile/UsesLink;
//   - committing the plan changes the platform's residual by exactly the
//     per-resource sums recomputed independently from the mapping —
//     implementation memory plus stream buffers, utilisation, occupancy,
//     NI bandwidth and link lanes;
//   - UsesTile and UsesLink — what fault evacuation and preemption scope
//     their victims by — answer yes for exactly the tiles and links the
//     mapping reserves on;
//   - releasing the plan restores the residual bit-for-bit.
func FuzzPlanReservations(f *testing.F) {
	f.Add(int64(1), 6, 3, 0, true)
	f.Add(int64(123), 8, 5, 4, true)
	f.Add(int64(7), 4, 2, 2, false) // unpartitioned mesh
	f.Add(int64(42), 6, 4, 7, true) // loaded platform: nonzero base state
	f.Fuzz(func(t *testing.T, seed int64, mesh, procs, competitors int, regioned bool) {
		mesh = 4 + abs(mesh)%5   // 4..8
		procs = 2 + abs(procs)%4 // 2..5
		competitors = abs(competitors) % 8
		plat := workload.SyntheticPlatform(mesh, mesh, seed)
		if regioned {
			plat = workload.SyntheticRegionPlatform(mesh, mesh, seed, (mesh+1)/2)
		}
		// Vary the base residual: competing admissions stay committed, so
		// the plan under test aggregates against a loaded ledger.
		for i := 0; i < competitors; i++ {
			capp, clib := workload.Synthetic(workload.SynthOptions{
				Shape: workload.ShapeChain, Processes: 2 + i%3, Seed: seed + int64(i) + 1,
				MaxUtil: 0.15, PeriodNs: 40_000, SrcTile: "SRC0", SinkTile: "SINK0",
			})
			capp.Name = fmt.Sprintf("competitor-%d", i)
			cres, cerr := (&Mapper{Lib: clib}).Map(capp, plat)
			if cerr != nil || !cres.Feasible {
				continue
			}
			_ = Apply(plat, cres)
		}

		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: procs, Seed: seed,
			MaxUtil: 0.2, PeriodNs: 40_000, SrcTile: "SRC0", SinkTile: "SINK0",
		})
		app.Name = "plan-fuzz"
		res, err := (&Mapper{Lib: lib}).Map(app, plat)
		if err != nil || !res.Feasible {
			t.Skip("fixture not mappable with this geometry")
		}
		plan, err := NewPlan(plat, res)
		if err != nil {
			t.Fatalf("NewPlan on a feasible mapping: %v", err)
		}
		requireMatchesMapPlanner(t, plat, res)

		// The independent oracle: re-derive every reservation straight
		// from the mapping, without the plan's aggregation.
		mp := res.Mapping
		type tileSum struct {
			mem, in, out int64
			util         float64
			occ          int
		}
		tiles := make(map[arch.TileID]*tileSum)
		at := func(tid arch.TileID) *tileSum {
			s := tiles[tid]
			if s == nil {
				s = &tileSum{}
				tiles[tid] = s
			}
			return s
		}
		links := make(map[arch.LinkID]int64)
		for _, p := range app.MappableProcesses() {
			im := mp.Impl[p.ID]
			tid, ok := mp.Tile[p.ID]
			if im == nil || !ok {
				continue
			}
			cyc, cerr := im.CyclesPerPeriod(app, p)
			if cerr != nil {
				continue
			}
			s := at(tid)
			s.mem += im.MemBytes
			s.util += utilisationOf(plat.Tile(tid).CycleBudget(app.QoS.PeriodNs), cyc)
			s.occ++
		}
		for _, c := range app.StreamChannels() {
			path, ok := mp.Route[c.ID]
			if !ok {
				continue
			}
			bps := channelBps(c, app.QoS.PeriodNs)
			for _, lid := range path.Links {
				links[lid] += bps
			}
			if path.Hops() > 0 {
				at(mp.Tile[c.Src]).out += bps
				at(mp.Tile[c.Dst]).in += bps
			}
			if buf := mp.Buffers[c.ID]; buf > 0 {
				at(mp.Tile[c.Dst]).mem += buf * c.TokenBytes
			}
		}

		for _, tl := range plat.Tiles {
			if _, reserves := tiles[tl.ID]; plan.UsesTile(tl.ID) != reserves {
				t.Fatalf("UsesTile(%s) = %v, the mapping reserves there: %v", tl.Name, !reserves, reserves)
			}
		}
		for _, l := range plat.Links {
			if _, reserves := links[l.ID]; plan.UsesLink(l.ID) != reserves {
				t.Fatalf("UsesLink(%d) = %v, the mapping reserves there: %v", l.ID, !reserves, reserves)
			}
		}

		before := plat.Residual()
		plan.Commit(plat)
		after := plat.Residual()

		// The plan's committed deltas equal the oracle's sums.
		const utilTol = 1e-6
		for i := range before.Tiles {
			b, a := before.Tiles[i], after.Tiles[i]
			want := tiles[b.Tile]
			if want == nil {
				want = &tileSum{}
			}
			if b.FreeMemBytes-a.FreeMemBytes != want.mem {
				t.Fatalf("tile %d memory delta %d, oracle %d", b.Tile, b.FreeMemBytes-a.FreeMemBytes, want.mem)
			}
			if d := (b.FreeUtil - a.FreeUtil) - want.util; d > utilTol || d < -utilTol {
				t.Fatalf("tile %d util delta %v, oracle %v", b.Tile, b.FreeUtil-a.FreeUtil, want.util)
			}
			if b.FreeInBps-a.FreeInBps != want.in || b.FreeOutBps-a.FreeOutBps != want.out {
				t.Fatalf("tile %d NI delta in=%d out=%d, oracle in=%d out=%d",
					b.Tile, b.FreeInBps-a.FreeInBps, b.FreeOutBps-a.FreeOutBps, want.in, want.out)
			}
			if b.FreeSlots >= 0 && a.FreeSlots >= 0 && b.FreeSlots-a.FreeSlots != want.occ {
				t.Fatalf("tile %d slot delta %d, oracle %d", b.Tile, b.FreeSlots-a.FreeSlots, want.occ)
			}
		}
		for i := range before.Links {
			b, a := before.Links[i], after.Links[i]
			if b.FreeBps-a.FreeBps != links[b.Link] {
				t.Fatalf("link %d delta %d, oracle %d", b.Link, b.FreeBps-a.FreeBps, links[b.Link])
			}
		}

		// Release is the exact inverse.
		plan.Release(plat)
		if got := plat.Residual(); !got.Equal(before) {
			t.Fatal("release did not restore the residual bit-for-bit")
		}
	})
}
