package manager

import (
	"errors"
	"reflect"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// chainArrival is a four-process chain on SRC0/SINK0 under the given name;
// equal seeds give equal fingerprints.
func chainArrival(name string, seed int64) (*model.Application, *model.Library) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: seed, MaxUtil: 0.15, PeriodNs: 40_000})
	app.Name = name
	return app, lib
}

// learnTemplate admits and stops one arrival so its mapping is pooled, and
// returns the pooled template.
func learnTemplate(t *testing.T, m *Manager, name string, seed int64) template {
	t.Helper()
	app, lib := chainArrival(name, seed)
	if out := m.Admit(app, lib); !out.Admitted {
		t.Fatalf("%s: %v", name, out.Err)
	}
	if err := m.Stop(name); err != nil {
		t.Fatal(err)
	}
	fp, err := Fingerprint(app, lib)
	if err != nil {
		t.Fatal(err)
	}
	pool := m.templates.m[fp]
	if len(pool) != 1 || pool[0].plan == nil {
		t.Fatalf("%s left %d templates, want one carrying its plan", name, len(pool))
	}
	return pool[0]
}

// TestConflictNamesArrival: a plan names no application, so a conflict
// names the arrival that transacted it — not the one whose mapping first
// filled the template.
func TestConflictNamesArrival(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	m.SetMappingReuse(true)
	tpl := learnTemplate(t, m, "a", 5)
	if got := tpl.res.Mapping.App.Name; got != "a" {
		t.Fatalf("template maps %q; fixture broken", got)
	}
	tiles, _ := tpl.plan.Deltas()
	m.FailTile(tiles[0].Tile) // the pooled plan no longer fits
	err := m.transact(nil, change{tpl.plan, journal.EvAdmit, "b", model.BestEffort})
	var conflict *core.ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("transact of a plan on a failed tile = %v, want a *core.ConflictError", err)
	}
	if conflict.App != "b" {
		t.Errorf("conflict names %q, want the arrival b", conflict.App)
	}
}

// TestTemplateHitReusesPlan: a hit commits the plan its template carries,
// so residents committed from one template share a plan. Two of them
// commit onto multi-occupant tiles and stop in either order; each time
// the platform is back to pristine bit for bit, and the shared plan still
// holds what a fresh plan of the template holds.
func TestTemplateHitReusesPlan(t *testing.T) {
	// Two occupants per Montium, the one single-occupant tile type, so
	// both residents fit wherever the template placed its processes.
	plat := workload.SyntheticPlatform(6, 6, 1)
	for _, tl := range plat.Tiles {
		if tl.MaxOccupants == 1 {
			tl.MaxOccupants = 2
		}
	}
	pristine := plat.Clone()
	m := New(plat, core.Config{})
	m.SetMappingReuse(true)
	const seed = 3 // one process per Montium
	tpl := learnTemplate(t, m, "learn", seed)
	fresh, err := core.NewPlan(plat, tpl.res)
	if err != nil {
		t.Fatal(err)
	}
	wantTiles, wantLinks := fresh.Deltas()

	hits := m.Stats().TemplateHits
	for _, order := range [][]string{{"b", "c"}, {"c", "b"}} {
		for _, name := range []string{"b", "c"} {
			app, lib := chainArrival(name, seed)
			out := m.Admit(app, lib)
			if !out.Admitted {
				t.Fatalf("%s: %v", name, out.Err)
			}
			if out.Admission.plan != tpl.plan {
				t.Fatalf("%s: the hit committed a plan of its own, not the template's", name)
			}
		}
		for _, name := range order {
			if err := m.Stop(name); err != nil {
				t.Fatal(err)
			}
		}
		if err := arch.PlatformsIdentical(plat, pristine); err != nil {
			t.Fatalf("stopping %v: %v", order, err)
		}
		if gotTiles, gotLinks := tpl.plan.Deltas(); !reflect.DeepEqual(gotTiles, wantTiles) || !reflect.DeepEqual(gotLinks, wantLinks) {
			t.Fatalf("stopping %v changed the pooled plan", order)
		}
	}
	if got := m.Stats().TemplateHits - hits; got != 4 {
		t.Fatalf("%d of 4 admissions were template hits", got)
	}
}
