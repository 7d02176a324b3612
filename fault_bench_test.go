package rtsm

import (
	"path/filepath"
	"testing"

	"rtsm/internal/churn"
	"rtsm/internal/journal"
)

// The fault-churn pair prices the durability layer: the identical
// churn-with-faults scenario runs once bare and once with the
// hash-chained admission journal streaming every reservation event
// (admissions, departures, fault releases, relocations, evictions,
// fault flips) through the writer goroutine. Journaling happens inside
// the commit's locked sections — that ordering is what makes
// crash replay bit-for-bit — so the bar is about how much of that
// critical-section work leaks into throughput: the journaled run must
// stay close to the bare run's admissions/sec (reference runs record
// parity within noise).
func benchmarkAdmissionFaultChurn(b *testing.B, journaled bool) {
	o := churn.Defaults()
	o.Apps = b.N
	o.FaultRate = 0.02 // a tile fault per ~50 arrivals keeps evacuation hot
	if journaled {
		jf, err := journal.OpenFile(filepath.Join(b.TempDir(), "bench.journal"), 0, false)
		if err != nil {
			b.Fatal(err)
		}
		o.Journal = jf
	}
	b.ResetTimer()
	r := churn.Run(o)
	b.StopTimer()
	if r.ConfigErr != nil {
		b.Fatal(r.ConfigErr)
	}
	if r.LedgerErr != nil {
		b.Fatalf("ledger corrupted under benchmark load: %v", r.LedgerErr)
	}
	if r.JournalErr != nil {
		b.Fatalf("journal writer failed: %v", r.JournalErr)
	}
	if !r.Clean {
		b.Fatalf("ledger not pristine after churn: %d tiles, %d links drifted",
			len(r.Drift.Tiles), len(r.Drift.Links))
	}
	if elapsed := b.Elapsed(); elapsed > 0 {
		b.ReportMetric(float64(r.Stats.Admitted)/elapsed.Seconds(), "admissions/sec")
	}
	b.ReportMetric(float64(r.Stats.FaultsInjected), "faults")
	b.ReportMetric(float64(r.Stats.FaultRelocated), "relocated")
}

// BenchmarkAdmissionFaultChurnNoJournal is the baseline: fault churn
// with journaling off.
func BenchmarkAdmissionFaultChurnNoJournal(b *testing.B) { benchmarkAdmissionFaultChurn(b, false) }

// BenchmarkAdmissionFaultChurnJournal streams the journal to a file
// during the identical scenario.
func BenchmarkAdmissionFaultChurnJournal(b *testing.B) { benchmarkAdmissionFaultChurn(b, true) }
