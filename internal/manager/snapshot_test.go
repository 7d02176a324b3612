package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// sameLedgerInts compares the integer reservation fields of two
// platforms over every tile and link. ReservedUtil is left out: a float
// sum depends on the order plans were added and removed in, the integers
// do not.
func sameLedgerInts(a, b *arch.Platform) bool {
	for i, t := range a.Tiles {
		u := b.Tiles[i]
		if t.Occupants != u.Occupants || t.ReservedMem != u.ReservedMem ||
			t.ReservedInBps != u.ReservedInBps || t.ReservedOutBps != u.ReservedOutBps {
			return false
		}
	}
	for i, l := range a.Links {
		if l.ReservedBps != b.Links[i].ReservedBps {
			return false
		}
	}
	return true
}

// TestSnapshotNeverTearsAPlan pins what capturing under the one platform
// lock makes true: a snapshot is a point-in-time view of the whole mesh.
// Four goroutines commit and release, through transact, one plan each
// that straddles two regions, while a fifth takes Manager.Snapshot in a
// loop; every snapshot must equal the pristine platform plus some subset
// of whole plans — each plan's tiles and links in both of its regions or
// in neither. A region-by-region capture sees half a plan within the
// first few dozen snapshots.
func TestSnapshotNeverTearsAPlan(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	pristine := plat.Clone()

	// One straddler per quadrant boundary, mapped one after the other on
	// a scratch copy so all four fit the mesh at the same time.
	pairs := [][2]string{{"SRC0", "SINK1"}, {"SRC1", "SINK3"}, {"SRC3", "SINK2"}, {"SRC2", "SINK0"}}
	scratch := plat.Clone()
	plans := make([]*core.Plan, len(pairs))
	names := make([]string, len(pairs))
	for k, pair := range pairs {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(k),
			MaxUtil: 0.10, PeriodNs: 40_000, SrcTile: pair[0], SinkTile: pair[1],
		})
		app.Name = fmt.Sprintf("straddler-%d", k)
		names[k] = app.Name
		res, err := (&core.Mapper{Lib: lib}).Map(app, scratch)
		if err != nil || !res.Feasible {
			t.Fatalf("%s: no feasible mapping (%v)", app.Name, err)
		}
		if err := core.Apply(scratch, res); err != nil {
			t.Fatal(err)
		}
		if plans[k], err = core.NewPlan(plat, res); err != nil {
			t.Fatal(err)
		}
		regions := make(map[arch.Point]bool) // 4×4 blocks, keyed by block coordinate
		for _, tid := range res.Mapping.Tile {
			pos := plat.Pos(tid)
			regions[arch.Pt(pos.X/4, pos.Y/4)] = true
		}
		if len(regions) < 2 {
			t.Fatalf("%s touches regions %v; fixture must straddle", app.Name, regions)
		}
	}
	// expected[s] is the pristine platform plus the plans whose bit is
	// set in s.
	expected := make([]*arch.Platform, 1<<len(plans))
	for s := range expected {
		expected[s] = pristine.Clone()
		for k, plan := range plans {
			if s&(1<<k) != 0 {
				plan.Commit(expected[s])
			}
		}
	}

	m := New(plat, core.Config{})
	const snapshots = 400
	stop := make(chan struct{})
	var workers sync.WaitGroup
	var cycles atomic.Int64
	for k, plan := range plans {
		workers.Add(1)
		go func(c change) {
			defer workers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := m.transact(nil, c); err != nil {
					t.Errorf("commit %s: %v", c.app, err)
					return
				}
				m.transact([]change{c}, change{})
				cycles.Add(1)
			}
		}(change{plan, journal.EvAdmit, names[k], model.BestEffort})
	}
	for n := 1; n <= snapshots && !t.Failed(); n++ {
		snap := m.Snapshot()
		whole := false
		for _, exp := range expected {
			if sameLedgerInts(snap.Plat, exp) {
				whole = true
				break
			}
		}
		if !whole {
			t.Errorf("snapshot %d holds part of a plan: it matches no set of whole plans", n)
		}
	}
	close(stop)
	workers.Wait()
	t.Logf("%d snapshots against %d commit/release cycles", snapshots, cycles.Load())
}
