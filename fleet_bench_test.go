package rtsm

import (
	"fmt"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/fleet"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// The fleet benchmarks measure what horizontal federation buys on a
// contended churn workload. The scenario holds a fixed population of
// residents — sized to push a single 8×8 mesh to the edge of saturation —
// while arrivals churn through. On one mesh every arrival fights the
// saturated ledger: mapping runs long, placements collide, commits
// conflict and retry, and a growing share of arrivals burn a full
// mapping round only to be rejected. Federated over 2 or 4 meshes the
// same resident population spreads out, so arrivals land on mostly-free
// meshes where the warm template cache answers instantly and commits
// never collide. The total worker budget is held constant (4 workers
// split across the mesh pipelines), so on a single-core host the
// speedup is pure contention removal — fewer conflicts, repairs and
// doomed mapping rounds — not extra CPU. The acceptance bars are ≥1.7x
// admissions/sec at 2 meshes and ≥3x at 4 (EXPERIMENTS.md records a
// reference run).
// fleetApp is churnApp with a four-structure catalogue: a fleet deployment
// serving few distinct application structures at high rates maximizes the
// same-structure concurrency that makes a single mesh's workers race for
// identical template placements — exactly the contention routing removes.
func fleetApp(i int) (*model.Application, *model.Library) {
	s := i % 4
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 3 + s%3,
		Seed:      int64(s),
		MaxUtil:   0.15,
		PeriodNs:  40_000,
	})
	app.Name = fmt.Sprintf("churn-%d", i)
	return app, lib
}

func benchmarkFleetAdmission(b *testing.B, meshes int) {
	const totalWorkers = 4
	perWorkers := totalWorkers / meshes
	if perWorkers < 1 {
		perWorkers = 1
	}
	// The resident cap is the contention knob. 40 residents push a single
	// 8×8 mesh deep into saturation: its workers race for the same few
	// template placements, templates go stale, and arrivals degrade to
	// full mapping rounds against a crowded ledger. Federated, the same
	// population sits at 20 or 10 residents per mesh, where the warm
	// template cache answers nearly every arrival.
	const residentCap = 40

	specs := make([]workload.MeshSpec, meshes)
	for i := range specs {
		specs[i] = workload.MeshSpec{W: 8, H: 8, Seed: 123 + int64(i)*101}
	}
	plats := workload.SyntheticFleetPlatforms(specs)
	cfgs := make([]fleet.MeshConfig, meshes)
	mgrs := make([]*manager.Manager, meshes)
	for i, plat := range plats {
		m := manager.New(plat, core.Config{})
		m.SetMappingReuse(true)
		m.SetRepair(true)
		// Warm every mesh's template cache so all variants measure
		// steady-state behaviour, not first-arrival mapping.
		warmCatalogue(b, m, fleetApp)
		mgrs[i] = m
		queue := perWorkers * 4
		if queue < 4 {
			queue = 4
		}
		cfgs[i] = fleet.MeshConfig{Manager: m, Workers: perWorkers, Queue: queue}
	}
	f, err := fleet.New(fleet.Config{Seed: 7, Sample: meshes, SpillMargin: 0.03}, cfgs...)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	base := make([]manager.Stats, meshes)
	for i, m := range mgrs {
		base[i] = m.Stats()
	}

	pending := make(chan (<-chan fleet.Outcome), residentCap)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		// FIFO resident population: each admission above the cap departs
		// the oldest resident, holding occupancy at residentCap.
		var residents []string
		for ch := range pending {
			out := <-ch
			if !out.Admitted {
				continue
			}
			residents = append(residents, out.App)
			if len(residents) > residentCap {
				oldest := residents[0]
				residents = residents[1:]
				if err := f.Stop(oldest); err != nil {
					// Keep draining; bailing would wedge the producer on
					// the bounded pending channel.
					b.Error(err)
				}
			}
		}
		for _, name := range residents {
			if err := f.Stop(name); err != nil {
				b.Error(err)
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, lib := fleetApp(i)
		app.Name = fmt.Sprintf("fleet-%d", i)
		ch, err := f.Submit(app, lib)
		if err != nil {
			b.Fatal(err)
		}
		pending <- ch
	}
	close(pending)
	f.Close()
	<-collectorDone
	b.StopTimer()

	var st manager.Stats
	for i, m := range mgrs {
		s := m.Stats()
		if testing.Verbose() {
			b.Logf("mesh %d: admitted %d rejected %d conflicts %d hits %d running %d",
				i, s.Admitted-base[i].Admitted, s.Rejected-base[i].Rejected,
				s.Conflicts-base[i].Conflicts, s.TemplateHits-base[i].TemplateHits,
				m.LoadEstimate().Running())
		}
		delta := s
		delta.Admitted -= base[i].Admitted
		delta.Rejected -= base[i].Rejected
		delta.Retries -= base[i].Retries
		delta.TemplateHits -= base[i].TemplateHits
		st.Add(delta)
		if err := m.CheckInvariants(); err != nil {
			b.Fatalf("mesh %d ledger corrupted under benchmark load: %v", i, err)
		}
	}
	if st.Admitted == 0 {
		b.Fatal("benchmark admitted nothing; workload broken")
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(st.Admitted)/elapsed.Seconds(), "admissions/sec")
	}
	total := st.Admitted + st.Rejected
	b.ReportMetric(100*float64(st.Admitted)/float64(total), "%admitted")
	b.ReportMetric(float64(st.Retries)/float64(total), "retries/arrival")
	b.ReportMetric(100*float64(st.TemplateHits)/float64(total), "%reused")
	fs := f.Stats()
	b.ReportMetric(float64(fs.Spills), "spills")
}

// BenchmarkFleetAdmission1 is the baseline: the whole contended workload
// on a single mesh (the fleet layer degrades to a plain manager).
func BenchmarkFleetAdmission1(b *testing.B) { benchmarkFleetAdmission(b, 1) }

// BenchmarkFleetAdmission2 federates the identical workload and worker
// budget over two meshes. Acceptance bar: ≥1.7x the single-mesh
// admissions/sec.
func BenchmarkFleetAdmission2(b *testing.B) { benchmarkFleetAdmission(b, 2) }

// BenchmarkFleetAdmission4 federates over four meshes. Acceptance bar:
// ≥3x the single-mesh admissions/sec.
func BenchmarkFleetAdmission4(b *testing.B) { benchmarkFleetAdmission(b, 4) }
