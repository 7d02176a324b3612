package manager

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/workload"
)

// residentUtil is the share of the mesh's processing capacity the
// running admissions' plans reserve: their tile Util summed and divided
// by the processing-tile count.
func residentUtil(m *Manager) float64 {
	var sum float64
	for _, ad := range m.Running() {
		tiles, _ := ad.plan.Deltas()
		for _, d := range tiles {
			sum += d.Util
		}
	}
	n := 0
	for _, t := range m.Platform().Tiles {
		if t.Type != arch.TypeSource && t.Type != arch.TypeSink {
			n++
		}
	}
	return sum / float64(n)
}

// TestUtilizationMatchesResidentPlans pins what the dead-letter queue
// gates on: Load().Utilization, read off the platform's ledger, equals
// what the resident plans reserve after every admission, stop,
// preemption (relocation and eviction), fault evacuation and restore,
// and the manager ReplayEvents rebuilds from the journal reads the same.
func TestUtilizationMatchesResidentPlans(t *testing.T) {
	steps := 0
	var last float64
	check := func(m *Manager) {
		t.Helper()
		steps++
		last = m.Load().Utilization
		if want := residentUtil(m); math.Abs(last-want) > 1e-9 {
			t.Fatalf("step %d: Load().Utilization %v, resident plans reserve %v", steps, last, want)
		}
	}
	data := faultJournal(t, check)
	if last <= 0 {
		t.Fatalf("utilization %v after the run; fixture broken", last)
	}
	events, _, err := journal.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ReplayEvents(workload.SyntheticRegionPlatform(12, 12, 1, 3), core.Config{}, events)
	if err != nil {
		t.Fatal(err)
	}
	live := last
	check(rm)
	if last != live {
		t.Fatalf("replayed utilization %v, live %v", last, live)
	}
	t.Logf("%d steps, final utilization %.4f", steps, live)
}

// TestLoadEstimateTracksResidency pins the accounting the dead-letter
// queue gates on: Load().Utilization rises with an admission and
// returns to exactly zero when it stops.
func TestLoadEstimateTracksResidency(t *testing.T) {
	m := New(workload.Hiperlan2Platform(), core.Config{})
	l := m.Load()
	if l.TilesTotal <= 0 {
		t.Fatal("platform has no processing capacity")
	}
	if l.Utilization != 0 {
		t.Fatalf("fresh manager at utilization %v, want 0", l.Utilization)
	}

	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	if _, err := m.Start(app, lib); err != nil {
		t.Fatal(err)
	}
	if u := m.Load().Utilization; u <= 0 || u > 1 {
		t.Fatalf("Utilization = %v, want in (0,1]", u)
	}

	if err := m.Stop(app.Name); err != nil {
		t.Fatal(err)
	}
	if u := m.Load().Utilization; u != 0 {
		t.Fatalf("load leaked after stop: utilization %v", u)
	}
}

// TestLoadEstimateZeroAfterChurn admits and stops a churn of synthetic
// applications and requires Load().Utilization to land back on exactly
// zero: every commit path must release what it reserved on the ledger.
func TestLoadEstimateZeroAfterChurn(t *testing.T) {
	m := New(workload.SyntheticPlatform(4, 4, 7), core.Config{})
	var admitted []string
	for i := 0; i < 12; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3, Seed: int64(i),
			MaxUtil: 0.2, PeriodNs: 40_000,
		})
		app.Name = fmt.Sprintf("churn-%d", i)
		if out := m.Admit(app, lib); out.Admitted {
			admitted = append(admitted, app.Name)
		}
	}
	if len(admitted) == 0 {
		t.Fatal("nothing admitted")
	}
	if u := m.Load().Utilization; u <= 0 {
		t.Fatalf("Utilization = %v with %d residents", u, len(admitted))
	}
	for _, name := range admitted {
		if err := m.Stop(name); err != nil {
			t.Fatal(err)
		}
	}
	if u := m.Load().Utilization; u != 0 {
		t.Fatalf("load leaked after churn: utilization %v", u)
	}
}
