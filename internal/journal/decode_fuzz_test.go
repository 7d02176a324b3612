package journal_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/workload"
)

// churnPayloads journals a short churn run — admissions on the 12×12
// region mesh, the oldest of eight residents stopped — and returns its
// event payloads, as they sit on disk between frame header and record
// hash.
func churnPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf, journal.Options{})
	m := manager.New(workload.SyntheticRegionPlatform(12, 12, 1, 3), core.Config{})
	m.SetJournal(jw)
	var residents []string
	for i := 0; i < 24; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3 + i%4, Seed: int64(i % 6),
			MaxUtil: 0.1, PeriodNs: 40_000,
			SrcTile: fmt.Sprintf("SRC%d", i%16), SinkTile: fmt.Sprintf("SINK%d", i%16),
		})
		app.Name = fmt.Sprintf("churn-%d", i)
		if !m.Admit(app, lib).Admitted {
			continue
		}
		if residents = append(residents, app.Name); len(residents) > 8 {
			if err := m.Stop(residents[0]); err != nil {
				tb.Fatal(err)
			}
			residents = residents[1:]
		}
	}
	if err := jw.Close(); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	var payloads [][]byte
	for _, fr := range frames(tb, data) {
		if fr.kind == 'E' {
			payloads = append(payloads, data[fr.off+6:fr.end-sha256.Size])
		}
	}
	return payloads
}

// sameEvent compares two decoded events field for field, Util by its
// bit pattern (a fuzzed payload may carry a NaN).
func sameEvent(a, b *journal.Event) bool {
	if a.Seq != b.Seq || a.Type != b.Type || a.App != b.App || a.Priority != b.Priority ||
		a.Tile != b.Tile || a.Link != b.Link || len(a.Tiles) != len(b.Tiles) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Tiles {
		x, y := a.Tiles[i], b.Tiles[i]
		if math.Float64bits(x.Util) != math.Float64bits(y.Util) {
			return false
		}
		x.Util, y.Util = 0, 0
		if x != y {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeEvent holds the payload decoder to the reader-based decoder
// it replaced (the oracle in decode_ref_test.go): on any byte string
// both accept or both refuse, and what they accept is equal field for
// field. The seeds are every payload of a churn journal, whole, and
// every truncation of its first admission and first departure.
func FuzzDecodeEvent(f *testing.F) {
	cut := map[journal.EventType]bool{}
	for _, p := range churnPayloads(f) {
		f.Add(p)
		if e, err := journal.DecodeEvent(p); err == nil && !cut[e.Type] {
			cut[e.Type] = true
			for n := range len(p) {
				f.Add(p[:n])
			}
		}
	}
	if len(cut) != 2 {
		f.Fatalf("churn journal decodes to %d event types, want admissions and departures", len(cut))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := journal.DecodeEvent(p)
		want, werr := journal.DecodeEventRef(p)
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("decoder says %v, oracle says %v", err, werr)
		case err == nil && !sameEvent(&got, &want):
			t.Fatalf("decoded %+v, oracle %+v", got, want)
		}
	})
}
