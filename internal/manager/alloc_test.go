//go:build !race

package manager

import (
	"bytes"
	"io"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/workload"
)

// TestTemplateHitAllocationBudget keeps the journaled hit path — a
// template-hit Admit and the Stop that follows, the whole of what
// door-warm runs inside the manager — from gaining heap objects. Every
// commit and release goes through transact, so a closure or an escaping
// plan list added there would be paid on every admission. The budget is
// the measured count (41) plus 10 %; the race detector changes allocation
// counts, so the file is built without it.
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
	const budget = 45
	if allocs > budget {
		t.Errorf("template-hit Admit + Stop allocates %v objects, want at most %d", allocs, budget)
	}
	t.Logf("template-hit Admit + Stop: %v objects", allocs)
}

// TestReplayAllocationBudget keeps replay from growing back a plan per
// event: an admission costs its Admission and its Application, releases
// and faults cost nothing, and only the residents that survive get a
// plan. Measured 2.2 objects per event on the churn journal; the budget
// leaves room for a different event mix, not for a map per event.
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
	if perEvent > 4 {
		t.Errorf("replay allocates %.1f objects per event, want at most 4", perEvent)
	}
	t.Logf("replay: %.1f objects per event over %d events", perEvent, len(events))
}
