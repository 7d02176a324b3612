package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
)

// writeChain leaves a two-segment journal in dir: five events sealed in
// the base (batches of two), a crash with one more unsealed, then a
// resumed segment with three. It returns the segment paths.
func writeChain(t *testing.T, dir string) []string {
	t.Helper()
	base := filepath.Join(dir, "run.journal")
	event := func(i int) journal.Event {
		if i%3 == 2 {
			return journal.Event{Type: journal.EvFailTile, Tile: arch.TileID(i)}
		}
		return journal.Event{Type: journal.EvAdmit, App: "app", Priority: 1,
			Tiles: []core.TileReservation{{Tile: arch.TileID(i), MemBytes: 64, Util: 0.125, Occupants: 1}},
			Links: []core.LinkReservation{{Link: 3, Bps: 1000}}}
	}
	f, err := os.Create(base)
	if err != nil {
		t.Fatal(err)
	}
	w := journal.NewWriter(f, journal.Options{BatchSize: 2})
	for i := 0; i < 5; i++ {
		w.Append(event(i))
	}
	w.Flush()
	w.Append(event(5))
	w.Sync() // the crash: event 6 is on disk, unsealed
	f.Close()

	j, err := journal.OpenFile(base, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		j.Append(event(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return journal.SegmentPaths(base)
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	segs := writeChain(t, dir)
	if len(segs) != 2 {
		t.Fatalf("fixture wrote %d segments, want 2", len(segs))
	}
	// The same chain with one payload byte of the second segment changed,
	// and one cut short in the middle of its last frame, the seal.
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.journal.r1")
	flipped := append([]byte(nil), raw...)
	flipped[8+6+40+6+3] ^= 1 // past the magic and the head frame, inside the first event
	if err := os.WriteFile(corrupt, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.journal.r1")
	if err := os.WriteFile(torn, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	headless := filepath.Join(dir, "headless.journal.r1") // kill -9 inside the head frame
	if err := os.WriteFile(headless, raw[:8+6+20], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"verify a chain", append([]string{"verify"}, segs...), 0, []string{"ok: 8 sealed events in 2 segments", "seq 8", "torn tail 0 events, 0 bytes"}, ""},
		{"verify a torn tail", []string{"verify", segs[0], torn}, 0, []string{"ok: 5 sealed events in 2 segments", "seq 5", "torn tail 3 events, 274 bytes"}, ""},
		{"verify skips a final segment without its head", []string{"verify", segs[0], headless}, 0, []string{"ok: 5 sealed events in 1 segments", "seq 5", "skipped " + headless + ": no head frame, so nothing was journaled there"}, ""},
		{"verify refuses a headless middle segment", []string{"verify", segs[0], headless, segs[1]}, 1, nil, "segment 1: offset 0: not a rotated segment: no head frame"},
		{"verify names the bad frame", []string{"verify", segs[0], corrupt}, 1, nil, "segment 1: offset 54: record hash mismatch"},
		{"verify refuses a lone later segment", []string{"verify", segs[1]}, 1, nil, "starts mid-chain"},
		{"verify refuses a missing file", []string{"verify", filepath.Join(dir, "absent")}, 1, nil, "no such file"},
		{"stat", append([]string{"stat"}, segs...), 0, []string{"B/event", "5        3  ", "3        1  ", segs[1]}, ""},
		{"stat names a final segment without its head", []string{"stat", segs[0], headless}, 0, []string{"5        3  ", "skipped " + headless + ": no head frame, so nothing was journaled there"}, ""},
		{"stat does not describe a corrupt chain", []string{"stat", segs[0], corrupt}, 1, nil, "record hash mismatch"},
		{"dump", append([]string{"dump"}, segs...), 0, []string{`{"seq":1,"type":"admit","app":"app","prio":1,"tiles":[{"tile":0,"mem":64,"util":4593671619917905920,"occ":1}],"links":[{"link":3,"bps":1000}]}`, `{"seq":3,"type":"fail-tile","ftile":2}`}, ""},
		{"no mode", nil, 2, nil, "usage"},
		{"no segments", []string{"verify"}, 2, nil, "usage"},
		{"unknown mode", []string{"repair", segs[0]}, 2, nil, `unknown mode "repair"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\n%s%s", code, tc.code, &stdout, &stderr)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.stderr) || (tc.stderr == "") != (stderr.Len() == 0) {
				t.Errorf("stderr %q, want it to contain %q", &stderr, tc.stderr)
			}
		})
	}

	// Every dumped line is one JSON object, in sequence order, and none of
	// the inspections wrote to the files: the crash's torn event is still
	// where OpenFile's recovery left it (truncated away), the rest intact.
	var stdout bytes.Buffer
	if code := run(append([]string{"dump"}, segs...), &stdout, os.Stderr); code != 0 {
		t.Fatal("dump failed")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("dump printed %d lines, want 8", len(lines))
	}
	for i, line := range lines {
		var e struct{ Seq int }
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Seq != i+1 {
			t.Fatalf("line %d: %v, seq %d: %s", i, err, e.Seq, line)
		}
	}
	if after, _ := os.ReadFile(segs[1]); !bytes.Equal(after, raw) {
		t.Fatal("inspection changed a segment")
	}
}
