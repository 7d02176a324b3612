package journal

import (
	"fmt"
	"os"
)

// File is a journal on disk: the hash-chaining Writer (embedded) plus
// the segment file it appends to.
type File struct {
	*Writer
	// Recovered is what the earlier segments yielded — the sealed events
	// to replay and the chain position this segment continues; zero for a
	// fresh chain. Whoever replays the events may drop them (churn.NewStack
	// does). Segments counts those earlier segments and TornBytes the
	// unsealed tail recovery truncated from the last of them.
	Recovered Recovered
	Segments  int
	TornBytes int64

	file      *os.File
	path      string
	syncEvery int
}

// OpenFile opens the journal rooted at path, fsyncing on acks and after
// every syncEvery-th event (0 = acks only). With resume, segments a
// previous process left are recovered (RecoverFiles: chain verified
// end to end, then the torn tail truncated) and journaling continues the
// verified chain in the next segment file; replay Recovered.Events into
// a pristine platform (manager.ReplayEvents) before serving. Without
// resume, or when no segment exists, a fresh chain starts at path,
// truncating it and removing stale restart segments.
func OpenFile(path string, syncEvery int, resume bool) (*File, error) {
	j := &File{path: path, syncEvery: syncEvery}
	next := path
	segs := SegmentPaths(path)
	if !resume {
		// A fresh chain orphans the restart segments an earlier run left
		// beside path; the next recovery would try to chain onto them.
		for _, stale := range segs[min(1, len(segs)):] {
			if err := os.Remove(stale); err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
		}
	} else if len(segs) > 0 {
		var err error
		if j.Recovered, err = RecoverFiles(segs...); err != nil {
			return nil, err
		}
		// Counted from what was recovered, not from what exists: a final
		// segment that never got its head frame is re-created in place.
		j.Segments = len(j.Recovered.Segments)
		last := j.Recovered.Segments[j.Segments-1]
		j.TornBytes = last.Bytes - last.Sealed
		next = NextSegmentPath(path, j.Segments)
	}
	f, err := os.Create(next)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	opts := Options{Syncer: f, SyncEvery: syncEvery}
	if j.Segments == 0 {
		j.Writer = NewWriter(f, opts)
	} else {
		j.Writer = NewResumedWriter(f, j.Recovered.Chain, j.Recovered.Seq, opts)
	}
	j.file = f
	return j, nil
}

// Close seals the chain and closes the segment file.
func (j *File) Close() error {
	err := j.Writer.Close()
	if cerr := j.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates kill -9 and the restart after it: the segment file is
// dropped without the final seal Close would write — whatever was synced
// past the last seal stays behind as a torn tail — and the segments are
// recovered and resumed exactly as OpenFile does after a real crash.
func (j *File) Crash() (*File, error) {
	if err := j.file.Close(); err != nil {
		return nil, fmt.Errorf("journal: crash: %w", err)
	}
	return OpenFile(j.path, j.syncEvery, true)
}
