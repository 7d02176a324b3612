package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Segment is what one verified segment held.
type Segment struct {
	// Events and Seals count the sealed events and the seals that cover
	// them; Tail counts the complete events after the last seal.
	Events, Seals, Tail int
	// Bytes is the segment's length and Sealed the offset just past its
	// last seal (past the head or the magic when nothing is sealed yet):
	// truncating there discards exactly the torn tail.
	Bytes, Sealed int64
}

// Recovered is the restartable state a verified journal yields: the
// sealed events to replay, the size of the discarded torn tail, and the
// chain position (final chain hash + last sealed sequence) a resumed
// writer must continue from so the next segment joins the verified log.
type Recovered struct {
	// Events is every sealed event across all segments, in order.
	Events []Event
	// Tail counts the final segment's unsealed trailing events — the
	// authentic-looking but unprotected frames a crash left, which replay
	// must ignore and recovery truncates.
	Tail int
	// Chain is the chain hash after the last seal: the seed for the next
	// segment's head.
	Chain Hash
	// Seq is the last sealed event's sequence number (a resumed writer
	// continues from Seq+1).
	Seq uint64
	// Segments describes each segment, in order.
	Segments []Segment
}

// Verify reads one journal segment and returns the events of every
// sealed batch, in order. The returned tail count is how many trailing
// events were appended after the last seal (a crash mid-batch); they are
// authentic-looking but unprotected, so replay must ignore them. Any
// corruption — a damaged frame header, a flipped byte in an event
// payload, a wrong record hash, a broken Merkle root or chain hash, a
// seal counting the wrong number of events — is an error naming the
// offset of the frame it was found in.
//
// A rotated segment (one opening with a head frame) verifies standalone
// against its self-declared seed; use Recover to pin the seed against
// the preceding segment's actual seal.
func Verify(r io.Reader) ([]Event, int, error) {
	v := newVerifier()
	seg, _, _, err := v.segment(r, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	return v.events, seg.Tail, nil
}

// position is a place in the chain: the hash after the last seal and the
// last sealed sequence number.
type position struct {
	chain Hash
	seq   uint64
}

// verifier carries what one recovery reuses from segment to segment: the
// read buffer, the frame header and body, the unsealed batch's hashes,
// and the events decoded so far.
type verifier struct {
	br     *bufio.Reader
	header [headerLen]byte
	body   []byte
	hashes []Hash
	events []Event
	slabs  slabs
}

func newVerifier() *verifier {
	return &verifier{br: bufio.NewReaderSize(nil, 16<<10), slabs: slabs{names: make(map[string]string)}}
}

// readFull fills p from the segment. short reports that the segment
// ended first — the mark of a torn write — with n bytes read.
func (v *verifier) readFull(p []byte) (n int, short bool, err error) {
	n, err = io.ReadFull(v.br, p)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return n, true, nil
	}
	return n, false, err
}

// errTornHead reports a rotated segment that ends before its head frame
// does: empty, or cut inside the magic or the head.
var errTornHead = errors.New("offset 0: not a rotated segment: no head frame (the file ends inside it)")

// segment verifies one segment in a single streaming pass, appending its
// sealed events to v.events. want, when non-nil, pins the head frame
// (chain continuity across a rotation); nil accepts a genesis segment or
// a self-declared head. It returns the segment's description, the
// position its head frame declares (nil for a genesis segment) and the
// chain position it ends on.
func (v *verifier) segment(r io.Reader, want *position) (seg Segment, head *position, end position, err error) {
	v.br.Reset(r)
	v.hashes = v.hashes[:0]
	first := len(v.events)
	sealed := first // v.events[first:sealed] are sealed, the rest pending
	off := int64(0) // start of the frame being read
	fail := func(format string, args ...any) (Segment, *position, position, error) {
		v.events = v.events[:first]
		return Segment{}, nil, position{}, fmt.Errorf("offset %d: %s", off, fmt.Sprintf(format, args...))
	}
	if want != nil {
		end = *want
	}

	var m [len(magic)]byte
	n, short, err := v.readFull(m[:])
	seg.Bytes = int64(n)
	switch {
	case err != nil:
		return fail("%v", err)
	case n > 0 && m[0] == '{':
		return fail("this is a JSON-lines journal (the pre-PR-21 encoding); this version reads only binary frames")
	case !bytes.Equal(m[:min(n, 7)], magic[:min(n, 7)]):
		return fail("not a journal segment (bad magic)")
	case n == len(magic) && m[7] != magic[7]:
		return fail("unsupported journal version %d", m[7])
	}
	if !short {
		seg.Sealed = seg.Bytes
	}
	lastSeq := end.seq
	var kind byte // of the frame being read; 0 until a header is complete
	for !short {
		off = seg.Bytes
		h := v.header[:]
		n, short, err = v.readFull(h)
		seg.Bytes += int64(n)
		if err != nil {
			return fail("%v", err)
		}
		if short {
			break // the segment ends here, cleanly (n == 0) or inside a header
		}
		size := int(binary.LittleEndian.Uint32(h[1:5]))
		kind = h[0]
		switch {
		case h[5] != headerCheck(h[:5]):
			return fail("damaged frame header")
		case kind == kindEvent && size >= sha256.Size && size <= maxBody,
			kind == kindSeal && size == sealLen, kind == kindHead && size == headLen:
		default:
			return fail("no frame of kind %#x and length %d", kind, size)
		}
		if cap(v.body) < size {
			v.body = make([]byte, size+size/2)
		}
		body := v.body[:size]
		n, short, err = v.readFull(body)
		seg.Bytes += int64(n)
		if err != nil {
			return fail("%v", err)
		}
		if short {
			break // the declared length runs past the end: a torn write
		}
		switch kind {
		case kindHead:
			if off != int64(len(magic)) {
				return fail("head frame not at segment start")
			}
			p := position{chain: Hash(body[:sha256.Size]), seq: binary.LittleEndian.Uint64(body[sha256.Size:])}
			if want != nil && p != *want {
				return fail("rotation head (seed %s, seq %d) does not continue the previous segment (seal %s, seq %d)",
					p.chain, p.seq, want.chain, want.seq)
			}
			head, end, lastSeq = &p, p, p.seq
			seg.Sealed = seg.Bytes
		case kindEvent:
			payload := body[:size-sha256.Size]
			hash := Hash(sha256.Sum256(payload))
			if hash != Hash(body[size-sha256.Size:]) {
				return fail("record hash mismatch (event tampered)")
			}
			v.events = append(v.events, Event{})
			e := &v.events[len(v.events)-1]
			if err := decodeEvent(payload, e, &v.slabs); err != nil {
				return fail("%v", err)
			}
			if e.Seq <= lastSeq {
				return fail("sequence %d not increasing (last %d)", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			v.hashes = append(v.hashes, hash)
		case kindSeal:
			count := binary.LittleEndian.Uint32(body)
			root, prev, chain := Hash(body[4:]), Hash(body[4+sha256.Size:]), Hash(body[4+2*sha256.Size:])
			switch {
			case int(count) != len(v.hashes):
				return fail("seal counts %d events, batch has %d", count, len(v.hashes))
			case prev != end.chain:
				return fail("chain broken (prev %s, expected %s)", prev, end.chain)
			case merkleRoot(v.hashes) != root:
				return fail("merkle root mismatch")
			case chainHash(prev, root) != chain:
				return fail("chain hash mismatch")
			}
			end = position{chain: chain, seq: lastSeq}
			sealed = len(v.events)
			v.hashes = v.hashes[:0]
			seg.Seals++
			seg.Sealed = seg.Bytes
		}
	}
	if want != nil && head == nil {
		if off <= int64(len(magic)) && (kind == 0 || kind == kindHead) {
			v.events = v.events[:first]
			return Segment{}, nil, position{}, errTornHead
		}
		off = 0
		return fail("not a rotated segment: no head frame continuing seal %s", want.chain)
	}
	seg.Events, seg.Tail = sealed-first, len(v.events)-sealed
	v.events = v.events[:sealed]
	return seg, head, end, nil
}

// Recover verifies a rotated sequence of journal segments as one log:
// each segment after the first must open with a head frame whose seed
// equals the previous segment's final chain hash and whose sequence
// equals the previous segment's last event — so removing, reordering or
// truncating whole segments is as detectable as flipping a byte inside
// one. A non-final segment with anything after its last seal is an error
// (Rotate always seals before switching, so such a tail means the file
// lost bytes); the final segment may carry a torn tail (reported, not
// replayed). The first segment must be a full history: it either has no
// head frame or declares the genesis seed, so a mid-chain segment
// offered alone (or with its predecessors missing) is rejected rather
// than silently replaying half the log. A final, non-first segment that
// ends inside its head frame — kill -9 between creating the file and its
// first flush — is treated as absent: nothing was journaled in it, and a
// chain can be cut back to any seal of its last segment undetected
// anyway. The segment before it is then the final one, torn tail and
// all, and Recovered.Segments is one shorter than the input. A
// headless segment anywhere else is an error. Besides the events it returns
// the chain position needed to resume journaling after a crash: where
// the next segment starts. Recover only reads; every segment is read
// once, through one reused buffer.
func Recover(segments ...io.Reader) (Recovered, error) {
	if len(segments) == 0 {
		return Recovered{}, fmt.Errorf("journal: no segments")
	}
	v := newVerifier()
	rec := Recovered{Segments: make([]Segment, 0, len(segments))}
	var want *position
	for i, r := range segments {
		seg, head, end, err := v.segment(r, want)
		if errors.Is(err, errTornHead) && i > 0 && i == len(segments)-1 {
			break
		}
		if err != nil {
			return Recovered{}, fmt.Errorf("journal: segment %d: %w", i, err)
		}
		if i == 0 && head != nil && head.chain != (Hash{}) {
			return Recovered{}, fmt.Errorf("journal: segment 0: starts mid-chain (head seed %s, seq %d); earlier segments are missing", head.chain, head.seq)
		}
		if i > 0 {
			if prev := rec.Segments[i-1]; prev.Bytes > prev.Sealed {
				return Recovered{}, fmt.Errorf("journal: segment %d: %d bytes (%d unsealed events) after the last seal before a rotation (segment truncated)",
					i-1, prev.Bytes-prev.Sealed, prev.Tail)
			}
		}
		rec.Segments = append(rec.Segments, seg)
		rec.Tail, rec.Chain, rec.Seq = seg.Tail, end.chain, end.seq
		want = &end
	}
	rec.Events = v.events
	return rec, nil
}

// NewResumedWriter starts a journal writer that continues a recovered
// chain in a fresh segment: the first frame written is a head declaring
// the seed (the recovered final chain hash) and the last sealed sequence
// number, exactly as Rotate would have written it — so Recover over the
// old segments plus the new one still verifies end to end. The zero
// chain starts a genesis log (equivalent to NewWriter plus a redundant
// head). The caller keeps ownership of w.
func NewResumedWriter(w io.Writer, chain Hash, seq uint64, opts Options) *Writer {
	return newWriter(w, segmentHead(chain, seq), chain, seq, opts)
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

// RecoverFiles is crash recovery over on-disk segments: the whole chain
// is verified (Recover), and only then is the final segment truncated
// in place to its sealed prefix, discarding the torn tail. A chain that
// does not verify leaves every file as it was. After it succeeds, resume
// journaling with NewResumedWriter into NextSegmentPath of the segments
// Recovered lists (a headless final file is overwritten) and replay
// Recovered.Events into a pristine platform (manager.ReplayEvents)
// before serving.
func RecoverFiles(paths ...string) (Recovered, error) {
	if len(paths) == 0 {
		return Recovered{}, fmt.Errorf("journal: no segment files")
	}
	files := make([]io.Reader, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return Recovered{}, fmt.Errorf("journal: recover: %w", err)
		}
		defer f.Close()
		files[i] = f
	}
	rec, err := Recover(files...)
	if err != nil {
		return Recovered{}, err
	}
	last := len(rec.Segments) - 1
	if seg := &rec.Segments[last]; seg.Sealed < seg.Bytes {
		if err := os.Truncate(paths[last], seg.Sealed); err != nil {
			return Recovered{}, fmt.Errorf("journal: recover %s: %w", paths[last], err)
		}
	}
	return rec, nil
}
