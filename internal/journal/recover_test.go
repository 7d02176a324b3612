package journal_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"rtsm/internal/arch"
	"rtsm/internal/journal"
)

// TestSealedPrefixStopsAtTornTail pins the truncation point: the sealed
// prefix Recover reports ends on the last seal, excluding unsealed events
// and a frame the crash cut mid-write.
func TestSealedPrefixStopsAtTornTail(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, p, 40)
	data := buildJournal(t, events, 16, false) // seals at 16 and 32, 8-event tail

	rec, err := journal.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	seg := rec.Segments[0]
	if seg.Sealed != int64(sealedLength(t, data)) || seg.Bytes != int64(len(data)) {
		t.Fatalf("sealed prefix %d of %d bytes, want %d of %d", seg.Sealed, seg.Bytes, sealedLength(t, data), len(data))
	}
	if seg.Events != 32 || seg.Seals != 2 || seg.Tail != 8 || len(rec.Events) != 32 {
		t.Fatalf("segment %+v with %d events, want 32 sealed by 2 seals and 8 torn", seg, len(rec.Events))
	}
	sealed, tail, err := journal.Verify(bytes.NewReader(data[:seg.Sealed]))
	if err != nil {
		t.Fatalf("truncated journal does not verify: %v", err)
	}
	if tail != 0 || len(sealed) != 32 {
		t.Fatalf("truncated journal: %d sealed, %d tail, want 32/0", len(sealed), tail)
	}

	// A torn final frame (crash mid-write) must not extend the prefix, and
	// is not an event.
	cut, err := journal.Recover(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if got := cut.Segments[0]; got.Sealed != seg.Sealed || got.Tail != 7 {
		t.Fatalf("torn frame moved the prefix or counted as an event: %+v, want sealed %d, tail 7", got, seg.Sealed)
	}
}

// TestRecoverFilesAndResume is the full crash-restart journal story:
// crash with a torn tail, truncate + verify with RecoverFiles, resume
// into a new segment with NewResumedWriter, and confirm the combined
// log verifies end to end and replays to the same platform state as a
// direct application of the sealed events.
func TestRecoverFilesAndResume(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(11))
	events := randomEvents(rng, p, 40)
	base := filepath.Join(t.TempDir(), "run.journal")

	// Incarnation 1: 40 events, seals at 16/32, crash with 8 unsealed.
	f, err := os.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	w := journal.NewWriter(f, journal.Options{BatchSize: 16})
	for _, e := range events {
		w.Append(e)
	}
	w.Sync() // bytes down, tail unsealed — then the process dies
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.RecoverFiles(journal.SegmentPaths(base)...)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rec.Events) != 32 || rec.Seq != 32 {
		t.Fatalf("recovered %d events, seq %d, want 32/32", len(rec.Events), rec.Seq)
	}
	if rec.Chain == (journal.Hash{}) {
		t.Fatal("recovered chain still at genesis")
	}
	if fi, _ := os.Stat(base); fi == nil || fi.Size() == 0 {
		t.Fatal("recovery destroyed the base segment")
	}

	// Incarnation 2: resume into a fresh segment continuing the chain.
	segs := journal.SegmentPaths(base)
	next := journal.NextSegmentPath(base, len(segs))
	f2, err := os.Create(next)
	if err != nil {
		t.Fatal(err)
	}
	w2 := journal.NewResumedWriter(f2, rec.Chain, rec.Seq, journal.Options{BatchSize: 16})
	more := randomEvents(rand.New(rand.NewSource(13)), p, 20)
	var seqs []uint64
	for _, e := range more {
		seqs = append(seqs, w2.Append(e))
	}
	if seqs[0] != rec.Seq+1 {
		t.Fatalf("resumed writer started at seq %d, want %d", seqs[0], rec.Seq+1)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// The two segments verify as one chained log...
	paths := journal.SegmentPaths(base)
	if len(paths) != 2 {
		t.Fatalf("SegmentPaths found %d segments, want 2", len(paths))
	}
	rec2, err := journal.RecoverFiles(paths...)
	if err != nil {
		t.Fatalf("recover across segments: %v", err)
	}
	if len(rec2.Events) != 52 || rec2.Seq != 52 {
		t.Fatalf("combined recovery: %d events, seq %d, want 52/52", len(rec2.Events), rec2.Seq)
	}
	// ...and Recover over plain readers agrees (RecoverFiles is not weaker
	// than it).
	r1, err := os.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := os.Open(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	chained, err := journal.Recover(r1, r2)
	if err != nil {
		t.Fatalf("verify chain: %v", err)
	}
	if chained.Tail != 0 || len(chained.Events) != 52 {
		t.Fatalf("chain: %d events, %d tail, want 52/0", len(chained.Events), chained.Tail)
	}

	// Replaying the recovered stream matches direct application.
	direct := p.Clone()
	applyEvents(direct, append(append([]journal.Event{}, events[:32]...), more...))
	replayed := p.Clone()
	applyEvents(replayed, rec2.Events)
	if err := arch.PlatformsIdentical(direct, replayed); err != nil {
		t.Fatalf("recovered replay diverged: %v", err)
	}
}

// TestRecoverFilesIdempotent pins the double-crash case: recovering an
// already-truncated journal changes nothing.
func TestRecoverFilesIdempotent(t *testing.T) {
	p := testPlatform()
	events := randomEvents(rand.New(rand.NewSource(17)), p, 40)
	base := filepath.Join(t.TempDir(), "run.journal")
	f, err := os.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	w := journal.NewWriter(f, journal.Options{BatchSize: 16})
	for _, e := range events {
		w.Append(e)
	}
	w.Sync()
	f.Close()

	first, err := journal.RecoverFiles(base)
	if err != nil {
		t.Fatal(err)
	}
	size1, _ := os.Stat(base)
	second, err := journal.RecoverFiles(base)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	size2, _ := os.Stat(base)
	if size1.Size() != size2.Size() || first.Chain != second.Chain || first.Seq != second.Seq {
		t.Fatalf("recovery not idempotent: %d/%d bytes, chains %s/%s", size1.Size(), size2.Size(), first.Chain, second.Chain)
	}
}

// writeSegment puts data into a fresh segment file.
func writeSegment(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRecoverFilesRefusesCorruption pins torn versus corrupt: a crash can
// only leave a last frame that runs past the end of the file, so damage
// of any other shape — wherever it sits, sealed region or tail — is an
// error, and recovery leaves the file exactly as it found it. (Truncating
// before verifying used to turn one bad byte in batch two into the silent
// loss of every later batch.)
func TestRecoverFilesRefusesCorruption(t *testing.T) {
	p := testPlatform()
	events := randomEvents(rand.New(rand.NewSource(19)), p, 40)
	data := buildJournal(t, events, 8, false) // five seals, no tail
	fr := frames(t, data)
	at := fr[12] // an event of the second batch
	if at.kind != 'E' {
		t.Fatalf("frame 12 is %q, fixture changed", at.kind)
	}
	tornTail := buildJournal(t, events[:20], 8, false) // two seals, four unsealed events
	tailFrames := frames(t, tornTail)
	lastTail := tailFrames[len(tailFrames)-2]

	cases := map[string][]byte{
		"kind byte replaced":                 mutate(data, at.off, 'X'),
		"kind byte becomes another kind":     mutate(data, at.off, 'S'),
		"length byte changed":                mutate(data, at.off+1, data[at.off+1]^0x10),
		"length stretched past the end":      mutate(data, at.off+3, 0x7f),
		"payload byte changed":               mutate(data, at.off+9, data[at.off+9]^0x01),
		"record hash changed":                mutate(data, at.end-1, data[at.end-1]^0x80),
		"last seal's chain hash changed":     mutate(data, len(data)-1, data[len(data)-1]^0x01),
		"zero page in the sealed region":     zero(data, at.off, at.end),
		"garbage after the last seal":        append(append([]byte(nil), data...), "junk after the seal"...),
		"complete unsealed event, bad hash":  mutate(tornTail, lastTail.end-1, tornTail[lastTail.end-1]^0x01),
		"unsealed event, bad header":         mutate(tornTail, lastTail.off, 0),
		"text where the magic belongs":       append([]byte("journal\n"), data...),
		"magic of a later version":           mutate(data, 7, 2),
		"a JSON-lines journal of old":        []byte(`{"event":{"seq":1,"type":"admit"},"hash":"00"}` + "\n"),
		"frame of no kind at the very start": mutate(data, 8, 0),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			path := writeSegment(t, raw)
			rec, err := journal.RecoverFiles(path)
			if err == nil {
				t.Fatalf("recovered %d events from a corrupt journal", len(rec.Events))
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, raw) {
				t.Fatalf("a failed recovery changed the file: %d bytes before, %d after (%v)", len(raw), len(after), err)
			}
		})
	}
	// The same damage in an earlier segment of a rotated chain: nothing
	// is touched there either, the intact final segment's torn tail
	// included.
	t.Run("earlier segment of a chain", func(t *testing.T) {
		dir := t.TempDir()
		base := filepath.Join(dir, "run.journal")
		if err := os.WriteFile(base, cases["payload byte changed"], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(base+".r1", tornTail, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.RecoverFiles(journal.SegmentPaths(base)...); err == nil {
			t.Fatal("chain with a corrupt first segment recovered")
		}
		if after, _ := os.ReadFile(base + ".r1"); !bytes.Equal(after, tornTail) {
			t.Fatal("a failed recovery truncated the final segment")
		}
	})
}

func mutate(data []byte, at int, to byte) []byte {
	out := append([]byte(nil), data...)
	if out[at] == to {
		panic("mutation changes nothing")
	}
	out[at] = to
	return out
}

func zero(data []byte, from, to int) []byte {
	out := append([]byte(nil), data...)
	clear(out[from:to])
	return out
}

// TestRecoverFilesAtEveryTruncation is the other half of the rule: a
// journal cut at any byte offset whatever is a torn write, never an
// error. Recovery yields exactly the batches whose seal fits, truncates
// to the end of the last one, and a second recovery finds nothing left
// to do.
func TestRecoverFilesAtEveryTruncation(t *testing.T) {
	p := testPlatform()
	events := randomEvents(rand.New(rand.NewSource(23)), p, 12)
	data := buildJournal(t, events, 4, true) // three batches
	fr := frames(t, data)
	path := filepath.Join(t.TempDir(), "run.journal")
	for cut := 0; cut <= len(data); cut++ {
		wantEvents, wantSize, pending := 0, int64(min(cut, 8)/8*8), 0
		for _, f := range fr {
			if f.end > cut {
				break
			}
			pending++
			if f.kind == 'S' {
				wantEvents, wantSize, pending = wantEvents+pending-1, int64(f.end), 0
			}
		}
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := journal.RecoverFiles(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(first.Events) != wantEvents || first.Tail != pending || first.Seq != uint64(wantEvents) {
			t.Fatalf("cut at %d: %d events, tail %d, seq %d; want %d, %d, %d",
				cut, len(first.Events), first.Tail, first.Seq, wantEvents, pending, wantEvents)
		}
		if fi, _ := os.Stat(path); fi.Size() != wantSize {
			t.Fatalf("cut at %d: file is %d bytes after recovery, want %d", cut, fi.Size(), wantSize)
		}
		second, err := journal.RecoverFiles(path)
		if err != nil {
			t.Fatalf("cut at %d: second recovery: %v", cut, err)
		}
		seg := second.Segments[0]
		if seg.Bytes != wantSize || seg.Sealed != wantSize || second.Tail != 0 ||
			second.Chain != first.Chain || len(second.Events) != wantEvents {
			t.Fatalf("cut at %d: second recovery was not a no-op: %+v", cut, seg)
		}
	}
}

// TestAllocationBudgets pins what the binary encoding bought: Append
// allocates the frame it hands to the writer goroutine and nothing else
// (the seal every 64 events rounds away), and verification allocates each
// application name once — every later event of the application shares
// it — plus an amortised share of the event and delta slabs. Measured
// 0.55 objects per verified event.
func TestAllocationBudgets(t *testing.T) {
	p := testPlatform()
	events := randomEvents(rand.New(rand.NewSource(29)), p, 512)
	w := journal.NewWriter(io.Discard, journal.Options{})
	i := 0
	if got := testing.AllocsPerRun(len(events)-1, func() {
		w.Append(events[i%len(events)])
		i++
	}); got > 2 {
		t.Errorf("Append allocates %.0f objects per event, budget 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data := buildJournal(t, events, 64, true)
	r := bytes.NewReader(data)
	var got []journal.Event
	perRun := testing.AllocsPerRun(10, func() {
		r.Reset(data)
		var err error
		if got, _, err = journal.Verify(r); err != nil || len(got) != len(events) {
			t.Fatalf("verify: %d events, %v", len(got), err)
		}
	})
	if perEvent := perRun / float64(len(events)); perEvent > 0.6 {
		t.Errorf("verification allocates %.2f objects per event, budget 0.6", perEvent)
	}

	admitted := make(map[string]*byte)
	departs := 0
	for _, e := range got {
		switch e.Type {
		case journal.EvAdmit:
			admitted[e.App] = unsafe.StringData(e.App)
		case journal.EvDepart:
			if admit, ok := admitted[e.App]; ok {
				departs++
				if admit != unsafe.StringData(e.App) {
					t.Fatalf("depart of %q decodes to a copy of its admit's name", e.App)
				}
			}
		}
	}
	if departs == 0 {
		t.Fatal("no depart follows its admit; fixture broken")
	}
}
