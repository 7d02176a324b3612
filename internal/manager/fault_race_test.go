package manager

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestFaultStormAccountingUnderChurn storms tile faults through region 0
// — fail, evacuate, restore, repeat — while best-effort admissions churn
// region 3, all journaled, all under -race. It pins three properties of
// the evacuation path:
//
//  1. Evacuation accounting partitions: every resident a fault touches
//     is relocated or dropped, never both and never neither, and the
//     Stats counters agree with the per-fault reports.
//  2. The ledger survives: invariants hold and a full teardown returns
//     the platform to pristine.
//  3. Journal order equals commit order: replaying the full journal
//     into a pristine twin reproduces the live platform bit-for-bit,
//     which could not hold if any region's events were appended out of
//     commit order during the storm.
func TestFaultStormAccountingUnderChurn(t *testing.T) {
	plat := workload.SyntheticRegionPlatform(8, 8, 123, 4)
	replayBase := plat.Clone()
	pristine := plat.Residual()

	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{BatchSize: 32})
	m := New(plat, core.Config{})
	m.SetJournal(jw)

	// The processing tiles of region 0, the 4×4 block that holds SRC0 and
	// SINK0, are the storm's targets.
	var stormTiles []arch.TileID
	for _, tl := range plat.Tiles {
		switch tl.Type {
		case arch.TypeSource, arch.TypeSink, arch.TypeNone:
			continue
		}
		if pos := plat.Pos(tl.ID); pos.X < 4 && pos.Y < 4 {
			stormTiles = append(stormTiles, tl.ID)
		}
	}
	if len(stormTiles) == 0 {
		t.Fatal("no processing tiles in region 0")
	}

	// Saturate region 0 so the storm has residents to evacuate.
	for i := 0; i < 100; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i % 5),
			MaxUtil: 0.25, PeriodNs: 400_000,
			SrcTile: "SRC0", SinkTile: "SINK0",
			Priority: model.BestEffort,
		})
		app.Name = fmt.Sprintf("r0-%d", i)
		if out := m.Admit(app, lib); !out.Admitted {
			break
		}
	}

	var wg sync.WaitGroup
	var reports []FaultReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 40; k++ {
			id := stormTiles[k%len(stormTiles)]
			if rep := m.FailTile(id); rep.Failed {
				reports = append(reports, rep)
			}
			m.RestoreTile(id)
		}
	}()
	const churnWorkers = 2
	const perWorker = 40
	// A churn application the mapper placed partly on a region-0 tile can
	// be dropped by a fault between its Admit and its Stop; such a Stop
	// fails with ErrNotRunning, and the name must then be in a report's
	// Dropped.
	var goneMu sync.Mutex
	var gone []string
	for w := 0; w < churnWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := w*perWorker + i
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + n%3, Seed: int64(n % 7),
					MaxUtil: 0.10, PeriodNs: 40_000,
					SrcTile: "SRC3", SinkTile: "SINK3",
				})
				app.Name = fmt.Sprintf("r3-%d-%d", w, i)
				if out := m.Admit(app, lib); out.Admitted {
					switch err := m.Stop(app.Name); {
					case errors.Is(err, ErrNotRunning):
						goneMu.Lock()
						gone = append(gone, app.Name)
						goneMu.Unlock()
					case err != nil && !errors.Is(err, ErrRelocating):
						t.Errorf("churn stop %s: %v", app.Name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if len(reports) == 0 {
		t.Fatal("storm injected no faults; fixture broken")
	}
	droppedBy := map[string]bool{}
	for _, rep := range reports {
		for _, name := range rep.Dropped {
			droppedBy[name] = true
		}
	}
	for _, name := range gone {
		if !droppedBy[name] {
			t.Fatalf("churn stop %s: not running, yet no fault dropped it", name)
		}
	}

	// Property 1: each report partitions its residents.
	var relocated, dropped uint64
	for fi, rep := range reports {
		seen := map[string]string{}
		for _, name := range rep.Relocated {
			seen[name] = "relocated"
		}
		for _, name := range rep.Dropped {
			if prev, dup := seen[name]; dup {
				t.Fatalf("fault %d: resident %q both %s and dropped", fi, name, prev)
			}
			seen[name] = "dropped"
		}
		if len(seen) != len(rep.Residents) {
			t.Fatalf("fault %d: %d residents, but %d evacuation outcomes", fi, len(rep.Residents), len(seen))
		}
		for _, name := range rep.Residents {
			if _, ok := seen[name]; !ok {
				t.Fatalf("fault %d: resident %q has no evacuation outcome", fi, name)
			}
		}
		relocated += uint64(len(rep.Relocated))
		dropped += uint64(len(rep.Dropped))
	}
	st := m.Stats()
	if st.FaultRelocated != relocated || st.FaultDropped != dropped {
		t.Fatalf("stats disagree with reports: relocated %d/%d, dropped %d/%d",
			st.FaultRelocated, relocated, st.FaultDropped, dropped)
	}
	if relocated == 0 {
		t.Fatal("storm never relocated a resident; fixture too weak")
	}

	// Property 3: full-journal replay reproduces the live platform.
	for _, id := range plat.FailedTiles() {
		m.RestoreTile(id)
	}
	jw.Flush()
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer: %v", err)
	}
	rm, tail, err := replayStream(replayBase, buf.Bytes())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if tail != 0 {
		t.Fatalf("flushed journal left %d torn events", tail)
	}
	if err := arch.PlatformsIdentical(plat, replayBase); err != nil {
		t.Fatalf("replayed platform differs from live platform after storm: %v", err)
	}
	if err := rm.CheckInvariants(); err != nil {
		t.Fatalf("replayed manager invariants: %v", err)
	}

	// Property 2: invariants and pristine teardown on the live manager.
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after storm: %v", err)
	}
	for _, ad := range m.Running() {
		if err := m.Stop(ad.App.Name); err != nil {
			t.Fatalf("teardown stop %s: %v", ad.App.Name, err)
		}
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("ledger not pristine after storm teardown: %d tiles, %d links drifted",
			len(d.Tiles), len(d.Links))
	}
	t.Logf("fault storm: %d faults, %d relocated, %d dropped, %d restores",
		len(reports), relocated, dropped, st.Restores)
}
