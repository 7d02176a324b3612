package manager

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// This file keeps the two replays ReplayEvents grew out of, as references
// it is compared against.

// replayOracle is replay as it was before it applied journaled deltas
// directly: a core.NewDeltaPlan per event, committed or released through
// the plan. Kept as the reference the direct replay is compared against.
func replayOracle(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	m := New(plat, cfg)
	released := make(map[string]*Admission)
	for i := range events {
		e := &events[i]
		plan := core.NewDeltaPlan(e.Tiles, e.Links)
		switch e.Type {
		case journal.EvAdmit:
			plan.Commit(plat)
			m.seq++
			prio := clampPriority(model.Priority(e.Priority))
			ad := &Admission{
				App:      model.NewApplication(e.App, model.QoS{Priority: prio}),
				Seq:      m.seq,
				Priority: prio,
				plan:     plan,
			}
			m.running[e.App] = ad
			m.loadCharge(ad)
		case journal.EvDepart:
			plan.Release(plat)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				m.loadRelease(ad)
			}
		case journal.EvPreemptRelease, journal.EvFaultRelease:
			plan.Release(plat)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				released[e.App] = ad
			}
		case journal.EvRelocate:
			plan.Commit(plat)
			ad := released[e.App]
			if ad == nil {
				return nil, fmt.Errorf("oracle: relocate of %q without a prior release (seq %d)", e.App, e.Seq)
			}
			delete(released, e.App)
			m.loadRelease(ad)
			ad.plan = plan
			m.loadCharge(ad)
			m.running[e.App] = ad
		case journal.EvEvict:
			if ad := released[e.App]; ad != nil {
				delete(released, e.App)
				m.loadRelease(ad)
			}
		case journal.EvFailTile:
			plat.FailTile(e.Tile)
		case journal.EvRestoreTile:
			plat.RestoreTile(e.Tile)
		case journal.EvFailLink:
			plat.FailLink(e.Link)
		case journal.EvRestoreLink:
			plat.RestoreLink(e.Link)
		default:
			return nil, fmt.Errorf("oracle: unknown event type %s (seq %d)", e.Type, e.Seq)
		}
	}
	for _, ad := range released {
		m.loadRelease(ad)
	}
	return m, nil
}

// replayEager is replay as it was before it built admissions only for
// the survivors: the journaled deltas are applied directly, but every
// admit builds its Admission and Application and charges its load at
// once, and releases give the charge back.
func replayEager(plat *arch.Platform, cfg core.Config, events []journal.Event) (*Manager, error) {
	m := New(plat, cfg)
	// placed is the event whose deltas each running resident holds.
	placed := make(map[string]*journal.Event)
	// released holds residents between a preemption or fault release and
	// the matching relocate (back to running) or evict (gone). Live
	// bookkeeping keeps a victim's load charged until its outcome;
	// replay mirrors that.
	released := make(map[string]*Admission)
	for i := range events {
		e := &events[i]
		switch e.Type {
		case journal.EvAdmit:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			m.seq++
			prio := clampPriority(model.Priority(e.Priority))
			ad := &Admission{
				App:      model.NewApplication(e.App, model.QoS{Priority: prio}),
				Seq:      m.seq,
				Priority: prio,
			}
			m.running[e.App], placed[e.App] = ad, e
			m.loadChargeTiles(ad, e.Tiles)
		case journal.EvDepart:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				m.loadRelease(ad)
			}
		case journal.EvPreemptRelease, journal.EvFaultRelease:
			core.ApplyDeltas(plat, e.Tiles, e.Links, -1)
			if ad := m.running[e.App]; ad != nil {
				delete(m.running, e.App)
				released[e.App] = ad
			}
		case journal.EvRelocate:
			core.ApplyDeltas(plat, e.Tiles, e.Links, +1)
			ad := released[e.App]
			if ad == nil {
				// A relocation with no release on record would mean the
				// journal skipped a reservation change.
				return nil, fmt.Errorf("eager: relocate of %q without a prior release (seq %d)", e.App, e.Seq)
			}
			delete(released, e.App)
			m.loadRelease(ad)
			m.loadChargeTiles(ad, e.Tiles)
			m.running[e.App], placed[e.App] = ad, e
		case journal.EvEvict:
			if ad := released[e.App]; ad != nil {
				delete(released, e.App)
				m.loadRelease(ad)
			}
		case journal.EvFailTile:
			plat.FailTile(e.Tile)
		case journal.EvRestoreTile:
			plat.RestoreTile(e.Tile)
		case journal.EvFailLink:
			plat.FailLink(e.Link)
		case journal.EvRestoreLink:
			plat.RestoreLink(e.Link)
		default:
			return nil, fmt.Errorf("eager: unknown event type %s (seq %d)", e.Type, e.Seq)
		}
	}
	// Victims mid-evacuation at the crash: their release is sealed but
	// their outcome is not. They hold no reservations, so the honest
	// reconstruction is "gone" — exactly what the live manager would
	// have concluded had it crashed after the release.
	for _, ad := range released {
		m.loadRelease(ad)
	}
	for name, ad := range m.running {
		e := placed[name]
		ad.plan = core.NewDeltaPlan(e.Tiles, e.Links)
	}
	return m, nil
}

// TestReplayMatchesEager replays the same journals through ReplayEvents
// and replayEager and requires the same platform, the same running set —
// names, admission order, priorities and plan deltas — and the same load
// estimate.
func TestReplayMatchesEager(t *testing.T) {
	for _, c := range []struct {
		name    string
		journal []byte
	}{
		{"churn", churnJournal(t, 200)},
		{"preempt and faults", faultJournal(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			events, _, err := journal.Verify(bytes.NewReader(c.journal))
			if err != nil {
				t.Fatal(err)
			}
			base := workload.SyntheticRegionPlatform(12, 12, 1, 3)
			got, err := ReplayEvents(base.Clone(), core.Config{}, events)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replayEager(base.Clone(), core.Config{}, events)
			if err != nil {
				t.Fatal(err)
			}
			if err := arch.PlatformsIdentical(got.plat, want.plat); err != nil {
				t.Fatalf("platforms differ: %v", err)
			}
			names := slices.Sorted(maps.Keys(want.running))
			if g := slices.Sorted(maps.Keys(got.running)); !slices.Equal(g, names) {
				t.Fatalf("running %v, eager %v", g, names)
			}
			for _, name := range names {
				g, w := got.running[name], want.running[name]
				gt, gl := g.plan.Deltas()
				wt, wl := w.plan.Deltas()
				if g.Seq != w.Seq || g.Priority != w.Priority || !reflect.DeepEqual(gt, wt) || !reflect.DeepEqual(gl, wl) {
					t.Fatalf("%s: seq %d priority %v, eager seq %d priority %v (or the plans differ)",
						name, g.Seq, g.Priority, w.Seq, w.Priority)
				}
			}
			if g, w := got.load.utilMilli.Load(), want.load.utilMilli.Load(); g != w {
				t.Fatalf("load estimate %d milli-tiles, eager %d", g, w)
			}
			t.Logf("%d events, %d residents", len(events), len(names))
		})
	}
}

// faultJournal journals a sequential run on the 12×12 region mesh that
// writes every event type: a full region 0, Critical arrivals that
// preempt (relocating or evicting their victims), stops, and tile and
// link faults that evacuate residents before they are restored.
func faultJournal(t *testing.T) []byte {
	t.Helper()
	plat := workload.SyntheticRegionPlatform(12, 12, 1, 3)
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	m := New(plat, core.Config{})
	m.SetJournal(jw)
	arrive := func(name string, n int, util float64, prio model.Priority) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3 + n%2, Seed: int64(n % 5),
			MaxUtil: util, PeriodNs: 400_000, SrcTile: "SRC0", SinkTile: "SINK0", Priority: prio,
		})
		app.Name = name
		m.Admit(app, lib)
	}
	for i := 0; i < 60; i++ {
		arrive(fmt.Sprintf("bg-%d", i), i, 0.30, model.BestEffort)
	}
	for i := 0; i < 12; i++ {
		arrive(fmt.Sprintf("crit-%d", i), i, 0.30, model.Critical)
	}
	for i, ad := range m.Running() {
		if i%3 == 0 {
			_ = m.Stop(ad.App.Name)
		}
	}
	// Fail what the residents use, one resource at a time.
	for _, ad := range m.Running() {
		tiles, links := ad.plan.Deltas()
		if len(links) > 0 && m.FailLink(links[0].Link).Failed {
			m.RestoreLink(links[0].Link)
		}
		for _, d := range tiles {
			if tl := plat.Tile(d.Tile); tl.Type != arch.TypeSource && tl.Type != arch.TypeSink && m.FailTile(d.Tile).Failed {
				m.RestoreTile(d.Tile)
				break
			}
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := journal.Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[journal.EventType]int)
	for _, e := range events {
		seen[e.Type]++
	}
	for ty := journal.EvAdmit; ty <= journal.EvRestoreLink; ty++ {
		if seen[ty] == 0 {
			t.Fatalf("fixture writes no %s event: %v", ty, seen)
		}
	}
	return buf.Bytes()
}
