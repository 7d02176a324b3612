package manager

import (
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestAdmissionCountersPinned drives one manager through a fixed,
// sequential script that reaches every way an admission ends — a
// template hit, a stale template refit by repair, a stale template whose
// repair falls back to the full map, rejections with and without a
// failed preemption, preemptions that relocate and evict victims, a
// duplicate name — plus tile faults that relocate and drop residents and
// their restores, and checks every Stats counter against the values the
// script produced when the counters were booked under the lock round by
// round. Where an admission books its counters must not change what it
// books. A sequential script never loses a commit race, so the conflict
// and retry counters stay 0 here; the concurrency tests cover them.
func TestAdmissionCountersPinned(t *testing.T) {
	// The synthetic mesh plus the receiver's pinned stream endpoints, as
	// in TestPreemptionRelocatesHiperlan2Background.
	plat := workload.SyntheticPlatform(6, 6, 11)
	plat.AttachTile(arch.TileSpec{
		Name: "A/D", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
	})
	plat.AttachTile(arch.TileSpec{
		Name: "Sink", Type: arch.TypeSink, At: arch.Pt(5, 5),
		ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000,
	})
	pristine := plat.Residual()
	m := New(plat, core.Config{})

	// A full map seeds the template, the same structure hits it, a fault
	// on its first tile relocates the hit, and the next arrival finds the
	// template stale and refits it.
	seed, lib := repairTestArrival("tpl-seed", 3)
	out := m.Admit(seed, lib)
	if !out.Admitted {
		t.Fatalf("seed arrival rejected: %v", out.Err)
	}
	tile := out.Admission.Result.Mapping.Tile[seed.MappableProcesses()[0].ID]
	if err := m.Stop(seed.Name); err != nil {
		t.Fatal(err)
	}
	hit, lib := repairTestArrival("tpl-hit", 3)
	if out := m.Admit(hit, lib); !out.Admitted || out.Attempts != 0 {
		t.Fatalf("template hit: admitted %v after %d mapping rounds", out.Admitted, out.Attempts)
	}
	m.FailTile(tile)
	stale, lib := repairTestArrival("tpl-stale", 3)
	if out := m.Admit(stale, lib); !out.Admitted || !out.Repaired {
		t.Fatalf("stale template: admitted %v, repaired %v", out.Admitted, out.Repaired)
	}
	m.RestoreTile(tile)
	if out := m.Admit(stale, lib); out.Err == nil {
		t.Fatal("a second admission under a running name went through")
	}

	// Best-effort background until the first rejection, then Critical
	// receivers that preempt it, and Standard arrivals on the full mesh.
	bg := func(i int) (*model.Application, *model.Library) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i % 7),
			MaxUtil: 0.12, PeriodNs: 400_000,
		})
		app.Name = fmt.Sprintf("bg-%d", i)
		return app, lib
	}
	for i := 0; ; i++ {
		if app, lib := bg(i); !m.Admit(app, lib).Admitted {
			break
		}
	}
	for i, mode := range workload.Hiperlan2Modes {
		app := workload.Hiperlan2(mode)
		app.Name = fmt.Sprintf("rx-%d-%s", i, mode.Name)
		app.QoS.Priority = model.Critical
		m.Admit(app, workload.Hiperlan2Library(mode))
	}
	again, lib := bg(0)
	again.Name = "bg-again"
	m.Admit(again, lib)
	for i := 0; i < 3; i++ {
		app, lib := bg(10 + i)
		app.Name = fmt.Sprintf("std-%d", i)
		app.QoS.Priority = model.Standard
		m.Admit(app, lib)
	}

	// Two faults on the full mesh: the first relocates every resident,
	// the second drops some.
	m.FailTile(0)
	m.FailTile(1)
	for _, tl := range plat.Tiles {
		m.RestoreTile(tl.ID)
	}

	type class struct{ Admitted, Rejected uint64 }
	type counters struct {
		Admitted, Rejected, Conflicts, Retries                 uint64
		TemplateHits, StaleTemplates, ConflictRetries          uint64
		RepairedConflicts, RepairedTemplates, FullRemaps       uint64
		Snapshots, SnapshotsShared, CoWFaults                  uint64
		Preemptions, Relocations, Evictions                    uint64
		FaultsInjected, FaultRelocated, FaultDropped, Restores uint64
		ByClass                                                [model.NumPriorities]class
	}
	st := m.Stats()
	got := counters{
		st.Admitted, st.Rejected, st.Conflicts, st.Retries,
		st.TemplateHits, st.StaleTemplates, st.ConflictRetries,
		st.RepairedConflicts, st.RepairedTemplates, st.FullRemaps,
		st.Snapshots, st.SnapshotsShared, st.CoWFaults,
		st.Preemptions, st.Relocations, st.Evictions,
		st.FaultsInjected, st.FaultRelocated, st.FaultDropped, st.Restores,
		[model.NumPriorities]class{},
	}
	for c := range got.ByClass {
		got.ByClass[c] = class{st.ByClass[c].Admitted, st.ByClass[c].Rejected}
	}
	want := counters{
		Admitted: 15, Rejected: 4,
		TemplateHits: 1, StaleTemplates: 3,
		RepairedTemplates: 2, FullRemaps: 1,
		Snapshots:   18,
		Preemptions: 6, Relocations: 2, Evictions: 4,
		FaultsInjected: 3, FaultRelocated: 5, FaultDropped: 3, Restores: 3,
		ByClass: [model.NumPriorities]class{
			model.BestEffort: {8, 1}, model.Standard: {2, 1}, model.Critical: {5, 2},
		},
	}
	if got != want {
		t.Fatalf("counters drifted:\n got %+v\nwant %+v", got, want)
	}

	for _, ad := range m.Running() {
		if err := m.Stop(ad.App.Name); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if final := m.Residual(); !final.Equal(pristine) {
		d := pristine.Diff(final)
		t.Fatalf("ledger not pristine after the script: %d tiles, %d links drifted", len(d.Tiles), len(d.Links))
	}
}
