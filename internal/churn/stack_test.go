package churn

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/journal"
)

// journalOptions is the scenario the recovery tests run.
func journalOptions(j *journal.File) Options {
	o := Defaults()
	o.Mesh, o.RegionSize, o.Catalogue, o.MaxUtil = 8, 4, 4, 0.1
	o.Journal = j
	return o
}

// admitSome admits arrivals [lo, hi) directly and stops every third one,
// so the journal carries admissions and departures.
func admitSome(t *testing.T, s *Stack, lo, hi int) {
	t.Helper()
	m := s.Manager
	for i := lo; i < hi; i++ {
		app, lib := s.Arrival(i)
		if out := m.Admit(app, lib); out.Admitted && i%3 == 0 {
			if err := m.Stop(app.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// crashed runs one incarnation over the journal at path: it admits
// arrivals [lo, hi), seals, clones the platform as the durable
// checkpoint, optionally strands torn work past the seal, and drops the
// file without a final seal. It returns the checkpoint and its resident
// set.
func crashed(t *testing.T, path string, resume bool, lo, hi, torn int) (*arch.Platform, []string) {
	t.Helper()
	j, err := journal.OpenFile(path, 0, resume)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStack(journalOptions(j))
	if err != nil {
		t.Fatal(err)
	}
	admitSome(t, s, lo, hi)
	j.Flush()
	m := s.Manager
	sealed, names := m.Platform().Clone(), ResidentNames(m)
	if len(names) < 3 {
		t.Fatalf("only %d residents at the checkpoint; scenario too small", len(names))
	}
	admitSome(t, s, 1000, 1000+torn)
	j.Sync()
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	s.Backend.Close()
	// The crash: no Close, no final seal. Recovery below reopens the files.
	return sealed, names
}

// recovered opens the journal with resume and builds the stack on it.
func recovered(t *testing.T, path string) (*Stack, *journal.File) {
	t.Helper()
	j, err := journal.OpenFile(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStack(journalOptions(j))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, j
}

func checkRecovered(t *testing.T, s *Stack, sealed *arch.Platform, names []string) {
	t.Helper()
	m := s.Manager
	if err := arch.PlatformsIdentical(sealed, m.Platform()); err != nil {
		t.Fatalf("replayed platform differs from the pre-crash checkpoint: %v", err)
	}
	if got := ResidentNames(m); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("recovered residents %v, want %v", got, names)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenJournalRecovery walks the restart paths every driver shares:
// journal.OpenFile plus the replay NewStack does on what it recovered.
func TestOpenJournalRecovery(t *testing.T) {
	t.Run("no segments starts a fresh chain", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		for _, resume := range []bool{false, true} {
			j, err := journal.OpenFile(path, 0, resume)
			if err != nil {
				t.Fatal(err)
			}
			if j.Segments != 0 || len(j.Recovered.Events) != 0 || j.TornBytes != 0 {
				t.Fatalf("resume=%v: fresh journal reports recovery: %+v", resume, j)
			}
			if got := journal.SegmentPaths(path); len(got) != 1 {
				t.Fatalf("resume=%v: segments %v, want just the base", resume, got)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			os.Remove(path)
		}
	})

	t.Run("sealed segment replays to the checkpoint", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		sealed, names := crashed(t, path, false, 0, 24, 0)
		s, j := recovered(t, path)
		if j.Segments != 1 || j.TornBytes != 0 || s.Replayed == 0 {
			t.Fatalf("recovery accounting off: segments %d, torn %d, events %d",
				j.Segments, j.TornBytes, s.Replayed)
		}
		checkRecovered(t, s, sealed, names)
	})

	t.Run("torn tail is truncated and counted", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		sealed, names := crashed(t, path, false, 0, 24, 6)
		s, j := recovered(t, path)
		if j.TornBytes <= 0 {
			t.Fatalf("torn tail not counted: %d bytes", j.TornBytes)
		}
		checkRecovered(t, s, sealed, names)
	})

	t.Run("flipped sealed byte serves nothing", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		crashed(t, path, false, 0, 24, 0)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// One bit of the first record's hash — the last byte of the frame
		// after the eight-byte magic, whose header carries the body length
		// in bytes 1..4: every frame boundary stays where it was, so only
		// chain verification can catch it.
		raw[8+6+binary.LittleEndian.Uint32(raw[9:])-1] ^= 1
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.OpenFile(path, 0, true); err == nil {
			t.Fatal("corrupted sealed record was accepted")
		}
		if got := journal.SegmentPaths(path); len(got) != 1 {
			t.Fatalf("a restart segment was opened on a corrupt chain: %v", got)
		}
	})

	t.Run("resumed chain verifies across three segments", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		crashed(t, path, false, 0, 24, 2)
		crashed(t, path, true, 24, 40, 2)
		sealed, names := crashed(t, path, true, 40, 56, 2)
		s, j := recovered(t, path)
		if j.Segments != 3 {
			t.Fatalf("recovered %d segments, want 3", j.Segments)
		}
		checkRecovered(t, s, sealed, names)
	})

	t.Run("restart segment without its head frame is re-created", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		sealed, names := crashed(t, path, false, 0, 24, 2)
		// A second kill -9, between OpenFile creating .r1 and its first
		// flush: the file is empty, or holds part of the magic or of the
		// head frame (8 + 6 + 40 bytes). The base is then still the final
		// segment, torn tail included.
		r1 := journal.NextSegmentPath(path, 1)
		if err := os.WriteFile(r1, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := journal.OpenFile(path, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if j.Segments != 1 || j.TornBytes <= 0 {
			t.Fatalf("recovered %d segments with %d torn bytes, want the base and its torn tail", j.Segments, j.TornBytes)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(r1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{53, 14, 11, 8, 3, 0} {
			if err := os.WriteFile(r1, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := journal.OpenFile(path, 0, true)
			if err != nil {
				t.Fatalf(".r1 cut to %d bytes: %v", cut, err)
			}
			if got := journal.SegmentPaths(path); j.Segments != 1 || len(got) != 2 {
				t.Fatalf(".r1 cut to %d bytes: recovered %d segments, on disk %v; want .r1 re-created", cut, j.Segments, got)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(r1, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s, j := recovered(t, path)
		checkRecovered(t, s, sealed, names)
		admitSome(t, s, 24, 40)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := journal.RecoverFiles(journal.SegmentPaths(path)...)
		if err != nil || len(rec.Segments) != 2 || len(rec.Events) <= s.Replayed {
			t.Fatalf("resumed chain: %v, %d segments, %d events (recovered %d before resuming)",
				err, len(rec.Segments), len(rec.Events), s.Replayed)
		}

		// Only a final segment may lack its head: with a later segment
		// behind it, an empty .r1 means lost history.
		if err := os.Rename(r1, journal.NextSegmentPath(path, 2)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(r1, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := journal.OpenFile(path, 0, true); err == nil || !strings.Contains(err.Error(), "no head frame") {
			t.Fatalf("headless middle segment: %v, want a no-head-frame error", err)
		}
	})

	t.Run("fresh chain drops stale restart segments", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.journal")
		crashed(t, path, false, 0, 24, 0)
		crashed(t, path, true, 24, 40, 0)
		crashed(t, path, false, 0, 24, 2)
		if got := journal.SegmentPaths(path); len(got) != 1 {
			t.Fatalf("stale segments survived a fresh open: %v", got)
		}
		recovered(t, path)
	})
}

// TestNewStackDropsReplayedEvents pins what a restarted service keeps
// of its history: once NewStack has replayed the recovered events, the
// journal it goes on writing no longer holds them, the stack keeps their
// count, and the residents still match the checkpoint.
func TestNewStackDropsReplayedEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	sealed, names := crashed(t, path, false, 0, 24, 0)
	j, err := journal.OpenFile(path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	n := len(j.Recovered.Events)
	s, err := NewStack(journalOptions(j))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if j.Recovered.Events != nil || n == 0 || s.Replayed != n {
		t.Fatalf("after NewStack: %d events still held, %d replayed, %d recovered", len(j.Recovered.Events), s.Replayed, n)
	}
	checkRecovered(t, s, sealed, names)
}

// TestRecyclerSeededInSortedOrder pins which resident is "oldest" after
// a restart: two recoveries of the same journal stop the recovered
// residents in the same — sorted-name — order.
func TestRecyclerSeededInSortedOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	_, names := crashed(t, path, false, 0, 24, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var orders [2][]string
	for k := range orders {
		dir := t.TempDir()
		copyPath := filepath.Join(dir, "j.journal")
		if err := os.WriteFile(copyPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _ := recovered(t, copyPath)
		stop := s.Recycler.stop
		s.Recycler.stop = func(name string) error {
			orders[k] = append(orders[k], name)
			return stop(name)
		}
		s.Recycler.Drain()
	}
	if fmt.Sprint(orders[0]) != fmt.Sprint(names) || fmt.Sprint(orders[1]) != fmt.Sprint(names) {
		t.Fatalf("recovered residents stopped in orders\n %v\n %v\nwant sorted %v", orders[0], orders[1], names)
	}
}
