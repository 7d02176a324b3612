package manager

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/workload"
)

// churnJournal drives arrivals through Admit with sixteen residents
// (oldest stopped first) on the default 12×12 region mesh and returns
// the sealed journal: the shape of history a restart has to read.
func churnJournal(tb testing.TB, arrivals int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	m := New(workload.SyntheticRegionPlatform(12, 12, 1, 3), core.Config{})
	m.SetMappingReuse(true)
	m.SetJournal(jw)
	var residents []string
	for i := 0; i < arrivals; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3 + i%4, Seed: int64(i % 6),
			MaxUtil: 0.1, PeriodNs: 40_000,
			SrcTile: fmt.Sprintf("SRC%d", i%16), SinkTile: fmt.Sprintf("SINK%d", i%16),
		})
		app.Name = fmt.Sprintf("churn-%d", i)
		if !m.Admit(app, lib).Admitted {
			continue
		}
		if residents = append(residents, app.Name); len(residents) > 16 {
			if err := m.Stop(residents[0]); err != nil {
				tb.Fatal(err)
			}
			residents = residents[1:]
		}
	}
	if err := jw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkRecover times the three parts of a restart separately, per
// event: building the fresh platform, verifying and decoding the
// journal, and replaying the events into the platform.
func BenchmarkRecover(b *testing.B) {
	data := churnJournal(b, 200)
	events, _, err := journal.Verify(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	base := workload.SyntheticRegionPlatform(12, 12, 1, 3)
	var plat *arch.Platform
	for _, part := range []struct {
		name        string
		prepare, op func()
	}{
		{"build", func() {}, func() { plat = workload.SyntheticRegionPlatform(12, 12, 1, 3) }},
		{"verify", func() {}, func() {
			if _, _, err := journal.Verify(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}},
		{"replay", func() { plat = base.Clone() }, func() {
			if _, err := ReplayEvents(plat, core.Config{}, events); err != nil {
				b.Fatal(err)
			}
		}},
	} {
		b.Run(part.name, func(b *testing.B) {
			var ms runtime.MemStats
			var mallocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				part.prepare()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				part.op()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				b.StartTimer()
			}
			n := float64(b.N * len(events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(mallocs)/n, "allocs/event")
			b.ReportMetric(float64(len(events)), "events")
			b.ReportMetric(float64(len(data))/float64(len(events)), "B/event")
		})
	}
}
