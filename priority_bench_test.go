package rtsm

import (
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/model"
)

// BenchmarkAdmissionPriorityPreempt measures what a latency-critical
// arrival sees on a loaded platform: a -priomix churn workload — a
// 70:20:10 best-effort/standard/critical arrival mix kept resident-heavy
// enough that the mesh saturates and rejections occur — where full-mesh
// critical arrivals displace minimal-cost best-effort victims and
// relocate them when possible. It reports the critical class's admission
// rate and latency and how many victims kept running;
// TestPreemptionRaisesCriticalAdmissionRate pins that the rate is
// strictly above the no-preemption one.
func BenchmarkAdmissionPriorityPreempt(b *testing.B) {
	opts := churn.Options{
		Workers:   4,
		Apps:      200,
		Mesh:      8,
		Seed:      123,
		Catalogue: 64,
		MaxUtil:   0.30, // load the mesh enough that admissions fail
		PeriodNs:  40_000,
		Resident:  32, // heavy resident population: sustained pressure
		PrioMix:   "70:20:10",
	}
	b.ResetTimer()
	var admitted, rejected uint64
	var latency time.Duration
	var preemptions, relocations uint64
	for i := 0; i < b.N; i++ {
		r := churn.Run(opts)
		if r.ConfigErr != nil {
			b.Fatal(r.ConfigErr)
		}
		if r.LedgerErr != nil {
			b.Fatalf("ledger corrupted: %v", r.LedgerErr)
		}
		c := r.Stats.ByClass[model.Critical]
		admitted += c.Admitted
		rejected += c.Rejected
		latency += c.Latency
		preemptions += r.Stats.Preemptions
		relocations += r.Stats.Relocations
	}
	b.StopTimer()
	total := admitted + rejected
	if total == 0 {
		b.Fatal("no critical arrivals; workload broken")
	}
	b.ReportMetric(100*float64(admitted)/float64(total), "%crit-admitted")
	b.ReportMetric(float64(latency.Microseconds())/float64(total), "crit-µs/arrival")
	b.ReportMetric(float64(preemptions)/float64(b.N), "preempted/run")
	if preemptions > 0 {
		b.ReportMetric(100*float64(relocations)/float64(preemptions), "%relocated")
	}
}
