package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Recovered is the restartable state a verified journal yields: the
// sealed events to replay, the size of the discarded torn tail, and the
// chain position (final chain hash + last sealed sequence) a resumed
// writer must continue from so the next segment joins the verified log.
type Recovered struct {
	// Events is every sealed event across all segments, in order.
	Events []Event
	// Tail counts the final segment's unsealed trailing events — the
	// authentic-looking but unprotected lines a crash left, which replay
	// must ignore and recovery truncates.
	Tail int
	// Chain is the chain hash after the last seal: the seed for the next
	// segment's snapshot head.
	Chain string
	// Seq is the last sealed event's sequence number (a resumed writer
	// continues from Seq+1).
	Seq uint64
}

// Recover verifies a rotated sequence of journal segments as one log:
// each segment after the first must open with a snapshot head whose seed
// equals the previous segment's final chain hash and whose sequence
// equals the previous segment's last event — so removing, reordering or
// truncating whole segments is as detectable as flipping a byte inside
// one. A non-final segment with unsealed trailing events is an error
// (Rotate always seals before switching, so such a tail means the file
// lost bytes); the final segment may carry a torn tail (reported, not
// replayed). The first segment must be a full history: it either has no
// snapshot head or declares the genesis seed, so a mid-chain segment
// offered alone (or with its predecessors missing) is rejected rather
// than silently replaying half the log. Besides the events it returns
// the chain position needed to resume journaling after a crash: where
// the next segment starts.
func Recover(segments ...io.Reader) (Recovered, error) {
	if len(segments) == 0 {
		return Recovered{}, fmt.Errorf("journal: no segments")
	}
	var rec Recovered
	wantSeed := ""
	var wantSeq uint64
	for i, r := range segments {
		events, tail, head, endChain, endSeq, err := verifySegment(r, wantSeed, wantSeq)
		if err != nil {
			return Recovered{}, fmt.Errorf("journal: segment %d: %w", i, err)
		}
		if i == 0 && head != nil && head.Seed != genesis {
			return Recovered{}, fmt.Errorf("journal: segment 0: starts mid-chain (snapshot seed %.12s…, seq %d); earlier segments are missing", head.Seed, head.Seq)
		}
		if i > 0 && head == nil {
			return Recovered{}, fmt.Errorf("journal: segment %d: not a rotated segment (no snapshot head)", i)
		}
		rec.Events = append(rec.Events, events...)
		if i == len(segments)-1 {
			rec.Tail = tail
			rec.Chain = endChain
			switch {
			case len(rec.Events) > 0:
				rec.Seq = rec.Events[len(rec.Events)-1].Seq
			case head != nil:
				rec.Seq = head.Seq
			}
			return rec, nil
		}
		if tail > 0 {
			return Recovered{}, fmt.Errorf("journal: segment %d: %d unsealed events before a rotation (segment truncated)", i, tail)
		}
		wantSeed, wantSeq = endChain, endSeq
	}
	return rec, nil // unreachable: the loop returns on the final segment
}

// SealedPrefix scans one segment and returns the byte offset just past
// the last seal (or past the snapshot head, when nothing is sealed
// yet): truncating the file to this offset discards exactly the torn
// tail a crash left while keeping every chain-protected byte. The scan
// is purely structural — it stops at the first torn or non-JSON line —
// so run Verify (or Recover) on the truncated file afterwards; a
// corrupted sealed region still fails there.
func SealedPrefix(r io.Reader) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var off, sealed int64
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if line[len(line)-1] != '\n' {
				// Torn final line: the crash cut a write mid-line. Nothing
				// at or past it can be part of the sealed prefix.
				break
			}
			trimmed := bytes.TrimSpace(line)
			if len(trimmed) > 0 {
				var rec record
				if json.Unmarshal(trimmed, &rec) != nil {
					break
				}
				off += int64(len(line))
				if rec.Seal != nil || rec.Snap != nil {
					sealed = off
				}
				continue
			}
			off += int64(len(line))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return sealed, nil
}

// NewResumedWriter starts a journal writer that continues a recovered
// chain in a fresh segment: the first record written is a snapshot head
// declaring the seed (the recovered final chain hash) and the last
// sealed sequence number, exactly as Rotate would have written it — so
// VerifyChain over the old segments plus the new one still verifies end
// to end. chain may be empty to start a genesis log (equivalent to
// NewWriter plus a redundant head). The caller keeps ownership of w.
func NewResumedWriter(w io.Writer, chain string, seq uint64, opts Options) (*Writer, error) {
	if chain == "" {
		chain = genesis
	}
	head, err := json.Marshal(record{Snap: &snapshot{Seed: chain, Seq: seq}})
	if err != nil {
		return nil, err
	}
	jw := newWriter(w, chain, seq, opts)
	jw.msgs <- wmsg{line: append(head, '\n')}
	return jw, nil
}

// SegmentPaths lists the on-disk segments of a journal rooted at base,
// oldest first: base itself, then the restart segments base.r1, base.r2,
// … that successive crash recoveries opened. The list stops at the
// first gap; a missing base returns nil.
func SegmentPaths(base string) []string {
	var paths []string
	if _, err := os.Stat(base); err != nil {
		return nil
	}
	paths = append(paths, base)
	for i := 1; ; i++ {
		p := fmt.Sprintf("%s.r%d", base, i)
		if _, err := os.Stat(p); err != nil {
			break
		}
		paths = append(paths, p)
	}
	return paths
}

// NextSegmentPath names the restart segment a recovery should open
// after the given existing segments: base.r1 after just base, base.r2
// after that, and so on.
func NextSegmentPath(base string, existing int) string {
	return fmt.Sprintf("%s.r%d", base, existing)
}

// RecoverFiles is crash recovery over on-disk segments: the final
// segment is truncated in place to its sealed prefix (discarding the
// torn tail), then the whole chain is verified and the restartable
// state returned. After it succeeds, resume journaling with
// NewResumedWriter into NextSegmentPath and replay Recovered.Events
// into a pristine platform (manager.ReplayEvents) before serving.
func RecoverFiles(paths ...string) (Recovered, error) {
	if len(paths) == 0 {
		return Recovered{}, fmt.Errorf("journal: no segment files")
	}
	last := paths[len(paths)-1]
	f, err := os.Open(last)
	if err != nil {
		return Recovered{}, fmt.Errorf("journal: recover: %w", err)
	}
	prefix, err := SealedPrefix(f)
	f.Close()
	if err != nil {
		return Recovered{}, fmt.Errorf("journal: recover %s: %w", last, err)
	}
	if fi, err := os.Stat(last); err == nil && prefix < fi.Size() {
		if err := os.Truncate(last, prefix); err != nil {
			return Recovered{}, fmt.Errorf("journal: recover %s: %w", last, err)
		}
	}
	files := make([]io.Reader, 0, len(paths))
	defer func() {
		for _, r := range files {
			r.(*os.File).Close()
		}
	}()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return Recovered{}, fmt.Errorf("journal: recover: %w", err)
		}
		files = append(files, f)
	}
	rec, err := Recover(files...)
	if err != nil {
		return Recovered{}, err
	}
	// The truncation already removed the tail; a nonzero count here
	// would mean SealedPrefix and verifySegment disagree on structure.
	if rec.Tail != 0 {
		return Recovered{}, fmt.Errorf("journal: recover %s: %d unsealed events survived truncation", last, rec.Tail)
	}
	return rec, nil
}
