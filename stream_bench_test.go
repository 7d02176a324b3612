package rtsm

import (
	"testing"

	"rtsm/internal/churn"
	"rtsm/internal/stream"
)

// streamBenchOptions is the scenario both streaming benchmarks run: an
// unsaturated all-Critical churn on an 8×8 mesh with one endpoint pair per
// 3×3 block. All-Critical keeps the comparison honest: Critical is the
// blocking-backpressure path, so the server admits exactly the arrivals
// the bare pipeline would (nothing sheds) and the throughput difference is
// pure stage overhead.
func streamBenchOptions(n int) churn.Options {
	o := churn.Defaults()
	o.Apps = n
	o.RegionSize = 3
	o.Catalogue = 4
	o.MaxUtil = 0.12
	o.Queue = 16
	o.Resident = 16
	o.PrioMix = "0:0:1"
	return o
}

// The streaming-server pair prices the admission front-end: the scenario
// runs once straight through the pipeline (churn.Run, the baseline) and
// once through the full staged server — ingress buffer, classifier,
// dispatch, per-arrival outcome watchers, rolling metrics window. The
// front-end should cost less than a fifth of the throughput it protects
// (reference runs record ~parity).

// BenchmarkStreamServeDirect is the baseline: the scenario straight
// through the admission pipeline with no server stages in front.
func BenchmarkStreamServeDirect(b *testing.B) {
	o := streamBenchOptions(b.N)
	b.ResetTimer()
	r := churn.Run(o)
	b.StopTimer()
	if r.ConfigErr != nil {
		b.Fatal(r.ConfigErr)
	}
	if r.LedgerErr != nil {
		b.Fatalf("ledger corrupted under benchmark load: %v", r.LedgerErr)
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(r.Stats.Admitted)/elapsed.Seconds(), "admissions/sec")
	}
}

// BenchmarkStreamServeServer runs the identical scenario through the
// staged streaming server.
func BenchmarkStreamServeServer(b *testing.B) {
	benchmarkStreamSoak(b, stream.Options{Ingress: 256, ClassBuf: 64})
}

func benchmarkStreamSoak(b *testing.B, server stream.Options) {
	o := streamBenchOptions(b.N)
	b.ResetTimer()
	res := churn.RunSoak(o, server)
	b.StopTimer()
	if res.ConfigErr != nil {
		b.Fatal(res.ConfigErr)
	}
	if res.LedgerErr != nil {
		b.Fatalf("ledger corrupted under benchmark load: %v", res.LedgerErr)
	}
	if shed := res.Report.Shed(); shed > 0 {
		// Shedding would mean the server did less mapping work than the
		// baseline and the comparison measures nothing.
		b.Fatalf("unsaturated scenario shed %d arrivals", shed)
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(res.Report.Admitted)/elapsed.Seconds(), "admissions/sec")
	}
}
