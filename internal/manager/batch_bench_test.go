package manager

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// The uncontended batched-vs-per-item microbenchmark pair. Both
// benchmarks drive the identical churn workload — 4 worker goroutines,
// each owning 4 of the 16 mesh regions, each admitting a burst of one
// arrival per owned region and then (outside the timer) stopping them —
// and differ only in the admission path: admitBatch drains a worker's
// burst as one round (one merged multi-application commit of the
// disjoint plans under the union lock), the control admits the same
// burst one item at a time. Region ownership makes worker footprints
// disjoint by construction, so neither variant sees a conflict, a
// retry or a repair: the pair isolates pure per-admission path length
// and pins that the batch machinery costs nothing over the per-item
// path even with no contention to absorb (both paths are one
// fingerprint, one plan construction, one validation and one commit
// per admission).
//
// The acceptance pair (BenchmarkAdmissionBatched at the repo root)
// runs the comparison through the full pipeline, where arrivals race:
// there the merged commit and the spill path absorb the cross-worker
// conflicts the per-item control pays for in retries and repairs, and
// the batched side wins by integer factors.

// burstReq is one region-pinned catalogue arrival: structure and
// stream endpoints are both fixed by the region, so every round
// re-admits the same 16 (structure, region) pairs and the template
// pools stay hot after the warm passes. Single-process chains keep the
// placement region-local (step 2's local search pulls a lone kernel
// straight toward its pinned endpoints; longer chains can strand mid
// processes at the first-fit tiles near the mesh origin), which is what
// lets the disjoint-footprint merge actually form.
func burstReq(region, n int) (*model.Application, *model.Library) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 1, Seed: int64(region),
		MaxUtil: 0.05, PeriodNs: 400_000,
		SrcTile: fmt.Sprintf("SRC%d", region), SinkTile: fmt.Sprintf("SINK%d", region),
	})
	app.Name = fmt.Sprintf("burst-%d-%d", region, n)
	return app, lib
}

func benchmarkAdmissionBurst(b *testing.B, batched bool) {
	plat := workload.SyntheticRegionPlatform(16, 16, 123, 4)
	m := New(plat, core.Config{})
	m.SetMappingReuse(true)
	m.SetRepair(true)
	const workers = 4
	regions := plat.RegionCount()
	perWorker := regions / workers

	// Generate the catalogue once; the timed loop re-admits the same 16
	// applications so it measures the admission path, not the synthetic
	// workload generator.
	apps := make([]*model.Application, regions)
	libs := make([]*model.Library, regions)
	for r := 0; r < regions; r++ {
		apps[r], libs[r] = burstReq(r, 0)
	}

	// Warm the template pools with the round's own steady state: one
	// pass admitting all 16 arrivals concurrently-resident (so the
	// remembered placements are mutually compatible) and one pass on the
	// empty platform.
	var warm []string
	for r := 0; r < regions; r++ {
		if out := m.Admit(apps[r], libs[r]); out.Admitted {
			warm = append(warm, apps[r].Name)
		}
	}
	for _, name := range warm {
		if err := m.Stop(name); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < regions; r++ {
		if out := m.Admit(apps[r], libs[r]); out.Admitted {
			if err := m.Stop(apps[r].Name); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := m.Stats()

	// Jobs are pipeline plumbing both paths pay for in a real
	// deployment; build each worker's burst once (the buffered done
	// channels are drained every round, so they are reusable) and keep
	// the timed loop to the admission paths themselves.
	bursts := make([][]*job, workers)
	for w := 0; w < workers; w++ {
		bursts[w] = make([]*job, perWorker)
		for k := range bursts[w] {
			bursts[w][k] = newJob(apps[w*perWorker+k], libs[w*perWorker+k])
		}
	}
	start := time.Now()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		admitted := make([][]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := w * perWorker
				if batched {
					jobs := bursts[w]
					for _, j := range jobs {
						j.enqueued = start
					}
					m.admitBatch(jobs, start)
					for _, j := range jobs {
						if out := <-j.done; out.Admitted {
							admitted[w] = append(admitted[w], out.App)
						}
					}
				} else {
					for k := 0; k < perWorker; k++ {
						if out := m.admit(apps[lo+k], libs[lo+k], 0); out.Admitted {
							admitted[w] = append(admitted[w], apps[lo+k].Name)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		// The stop side is identical churn for both variants; keep it
		// outside the timer so the ratio reads admission cost alone.
		b.StopTimer()
		for _, names := range admitted {
			for _, name := range names {
				if err := m.Stop(name); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
	}
	b.StopTimer()

	st := m.Stats()
	total := st.Admitted - base.Admitted
	if total == 0 {
		b.Fatal("benchmark admitted nothing; workload broken")
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(total)/elapsed.Seconds(), "admissions/sec")
	}
	b.ReportMetric(float64(st.Retries-base.Retries)/float64(total), "retries/arrival")
	if batched {
		b.ReportMetric(100*float64(st.BatchedAdmissions-base.BatchedAdmissions)/float64(total), "%batched")
		b.ReportMetric(100*float64(st.BatchSpills-base.BatchSpills)/float64(total), "%spilled")
		b.ReportMetric(100*float64(st.BatchFallbacks-base.BatchFallbacks)/float64(total), "%fellback")
	}
	if err := m.CheckInvariants(); err != nil {
		b.Fatalf("ledger corrupted under benchmark load: %v", err)
	}
}

// BenchmarkAdmissionBurstBatched: each worker's burst drains through
// admitBatch — one merged commit under the union of its region locks.
func BenchmarkAdmissionBurstBatched(b *testing.B) {
	benchmarkAdmissionBurst(b, true)
}

// BenchmarkAdmissionBurstPerItem: the identical bursts admitted one
// item at a time, the pre-batching path.
func BenchmarkAdmissionBurstPerItem(b *testing.B) {
	benchmarkAdmissionBurst(b, false)
}
