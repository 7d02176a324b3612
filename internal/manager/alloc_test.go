//go:build !race

package manager

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestTemplateHitAllocationBudget keeps the journaled hit path — a
// template-hit Admit and the Stop that follows, the whole of what
// door-warm runs inside the manager — from gaining heap objects. A hit
// builds no plan: it commits the plan its template carries, so what is
// left is the fingerprint, the Admission and the name bookkeeping. Every
// commit and release goes through transact, so a closure or an escaping
// plan list added there would be paid on every admission. It was 41 while
// the fingerprint allocated per port map and 19 while every hit rebuilt
// the template's plan; the budget is the measured 4 plus one. The race
// detector changes allocation counts, so the file is built without it.
func TestTemplateHitAllocationBudget(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	m.SetMappingReuse(true)
	jw := journal.NewWriter(io.Discard, journal.Options{})
	defer jw.Close()
	m.SetJournal(jw)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 5, MaxUtil: 0.15, PeriodNs: 40_000})
	cycle := func() {
		out := m.Admit(app, lib)
		if !out.Admitted {
			t.Fatalf("admit: %v", out.Err)
		}
		if err := m.Stop(app.Name); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the cold admission leaves the template every later one hits
	before := m.Stats().TemplateHits
	const runs = 200
	allocs := testing.AllocsPerRun(runs, cycle)
	if hits := m.Stats().TemplateHits - before; hits != runs+1 {
		t.Fatalf("%d of %d admissions were template hits; fixture broken", hits, runs+1)
	}
	const budget = 5
	if allocs > budget {
		t.Errorf("template-hit Admit + Stop allocates %v objects, want at most %d", allocs, budget)
	}
	t.Logf("template-hit Admit + Stop: %v objects", allocs)
}

// TestStaleTemplateByteBudget keeps a stale-template admission — the
// commonest door-churn operation — from copying the mesh: Admit finds the
// one pooled template held by a resident of the same structure, snapshots,
// repairs and commits, then Stop releases. The pool is reset to that one
// template before every cycle, so each is the same stale round. It read
// 83.6 KB while the snapshot and every repair attempt cloned the platform
// — two 12×12 mesh copies, ≈ 59 KB — and the fingerprint grew a 5 KB
// buffer, and 19 016 while the probe, the repair and the commit each built
// a plan of two Go maps. The budget is the measured bytes per cycle plus
// 10 %.
func TestStaleTemplateByteBudget(t *testing.T) {
	m := New(workload.SyntheticRegionPlatform(12, 12, 123, 3), core.Config{})
	m.SetMappingReuse(true)
	arrival := func(name string) (*model.Application, *model.Library) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 4, Seed: 1, MaxUtil: 0.12, PeriodNs: 40_000,
			SrcTile: "SRC0", SinkTile: "SINK0"})
		app.Name = name
		return app, lib
	}
	resident, lib := arrival("resident")
	if out := m.Admit(resident, lib); !out.Admitted {
		t.Fatalf("resident: %v", out.Err)
	}
	fp, err := Fingerprint(resident, lib)
	if err != nil {
		t.Fatal(err)
	}
	stale := m.templates.m[fp]
	app, lib := arrival("arrival")
	cycle := func() {
		m.templates.m[fp] = stale // the resident holds the only template
		if out := m.Admit(app, lib); !out.Admitted || !out.Repaired {
			t.Fatalf("admit: admitted=%v repaired=%v err=%v", out.Admitted, out.Repaired, out.Err)
		}
		if err := m.Stop(app.Name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		cycle() // fill the pools
	}
	before := m.Stats()
	const cycles = 50
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&ms)
	perCycle := (ms.TotalAlloc - start) / cycles
	if s := m.Stats(); s.StaleTemplates-before.StaleTemplates != cycles || s.RepairedTemplates-before.RepairedTemplates != cycles {
		t.Fatalf("%d stale, %d repaired of %d cycles; fixture broken",
			s.StaleTemplates-before.StaleTemplates, s.RepairedTemplates-before.RepairedTemplates, cycles)
	}
	const budget = 14_800 // measured 13 232 to 13 451
	if perCycle > budget {
		t.Errorf("stale-template Admit + Stop allocates %d bytes, want at most %d", perCycle, budget)
	}
	t.Logf("stale-template Admit + Stop: %d bytes", perCycle)
}

// TestFingerprintDigestAndAllocations pins the fingerprint of one
// door-churn catalogue arrival (index 1: a four-process chain on region
// 1's endpoints) to the digest the byte encoding has always produced, and
// keeps the call at a handful of objects: the hex string alone while the
// encoding fits the stack buffer. It was 14 to 28 while every port map
// sorted a fresh key slice and the buffer grew on the heap from 1 KiB.
func TestFingerprintDigestAndAllocations(t *testing.T) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 1, MaxUtil: 0.12, PeriodNs: 40_000,
		SrcTile: "SRC1", SinkTile: "SINK1"})
	fp, err := Fingerprint(app, lib)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a1af7606c1f8872f54b6460a9ac3b5223075a1468e2b3ee6c79778c7922bd482"; fp != want {
		t.Errorf("Fingerprint = %s, want %s", fp, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Fingerprint(app, lib); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Fingerprint allocates %v objects, want at most 3", allocs)
	}
	t.Logf("Fingerprint: %v objects", allocs)
}

// TestReplayAllocationBudget keeps replay from building anything per
// event: an admission costs a map entry, not an Admission and an
// Application, releases and faults cost nothing, and only the residents
// that survive get an Admission, an Application and a plan, which keeps
// the journaled deltas instead of copying them into maps. Measured 0.2
// objects per event on the churn journal (0.5 while a survivor's plan was
// two maps); the budget leaves room for a different event mix, not for an
// object per admission.
func TestReplayAllocationBudget(t *testing.T) {
	events, _, err := journal.Verify(bytes.NewReader(churnJournal(t, 200)))
	if err != nil {
		t.Fatal(err)
	}
	base := workload.SyntheticRegionPlatform(12, 12, 1, 3)
	clone := testing.AllocsPerRun(5, func() { base.Clone() })
	total := testing.AllocsPerRun(5, func() {
		if _, err := ReplayEvents(base.Clone(), core.Config{}, events); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := (total - clone) / float64(len(events))
	if perEvent > 0.3 {
		t.Errorf("replay allocates %.2f objects per event, want at most 0.3", perEvent)
	}
	t.Logf("replay: %.2f objects per event over %d events", perEvent, len(events))
}
