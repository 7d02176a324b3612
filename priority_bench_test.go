package rtsm

import (
	"testing"
	"time"

	"rtsm/internal/churn"
	"rtsm/internal/model"
)

// The priority benchmarks measure what preemption buys a latency-critical
// arrival on a loaded platform. Both run the identical -priomix churn
// workload — a 70:20:10 best-effort/standard/critical arrival mix kept
// resident-heavy enough that the mesh saturates and rejections occur —
// and differ only in whether the manager's preemption planner is on.
// Compare the pair (CI uploads it as the priority on/off artifact) to
// read off the critical class's admission-rate lift and latency cost:
// preemption trades extra mapping work on the rejection path (the
// hypothetical eviction probes and victim relocations) for a strictly
// higher critical admission rate; relocations keep the displaced
// best-effort work running. TestPreemptionRaisesCriticalAdmissionRate
// pins the "strictly higher" claim deterministically; the benchmarks
// quantify it.
func benchmarkAdmissionPriority(b *testing.B, preempt bool) {
	opts := churn.Options{
		Workers:   4,
		Apps:      200,
		Mesh:      8,
		Seed:      123,
		Catalogue: 64,
		MaxUtil:   0.30, // load the mesh enough that admissions fail
		PeriodNs:  40_000,
		Resident:  32, // heavy resident population: sustained pressure
		Reuse:     true,
		Repair:    true,
		PrioMix:   "70:20:10",
		Preempt:   preempt,
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

// BenchmarkAdmissionPriorityPreempt runs the mixed-class churn with the
// preemption planner on: full-mesh critical arrivals displace
// minimal-cost best-effort victims and relocate them when possible.
func BenchmarkAdmissionPriorityPreempt(b *testing.B) {
	benchmarkAdmissionPriority(b, true)
}

// BenchmarkAdmissionPriorityNoPreempt is the ablation: the identical
// workload with preemption off — the priority queue still orders
// arrivals, but a full mesh rejects critical work like any other.
func BenchmarkAdmissionPriorityNoPreempt(b *testing.B) {
	benchmarkAdmissionPriority(b, false)
}
