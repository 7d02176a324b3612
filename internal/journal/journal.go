// Package journal is the durable admission ledger: an append-only,
// hash-chained event log of everything that changes the platform's
// reservation state — admissions, departures, preemption releases,
// relocations, evictions, faults and restores. A manager wired to a
// journal can crash at any instant and be rebuilt bit-for-bit by
// replaying the sealed prefix into a fresh platform (manager.Replay).
//
// Integrity layout, following the classic audit-log construction:
// every event is serialized to one JSON line carrying the sha256 of its
// canonical payload; events are grouped into batches, and each batch is
// sealed by a line carrying the Merkle root of the batch's record hashes
// plus a chain hash sha256(prevChain ‖ root). Any flipped byte inside the
// sealed region breaks either a record hash, the Merkle root, or the
// chain; any sealed prefix of the file verifies on its own, so a torn
// tail (the crash case: events appended but never sealed) is detected and
// discarded rather than trusted.
//
// Writes stay off the admission hot path: Append serializes, hashes and
// stamps sequence numbers synchronously (cheap, and the caller holds its
// commit locks anyway, which is what makes journal order equal commit
// order), while the encoded lines are handed to a dedicated writer
// goroutine that batches them to the underlying io.Writer.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"rtsm/internal/arch"
	"rtsm/internal/core"
)

// EventType discriminates journal events.
type EventType string

// Event types. Reservation-bearing events (Admit and Relocate carry the
// new reservations; Depart, PreemptRelease and FaultRelease carry the
// released ones) record per-resource deltas; fault events name one
// resource.
const (
	// EvAdmit: an admission committed its reservations.
	EvAdmit EventType = "admit"
	// EvDepart: a resident stopped and released its reservations.
	EvDepart EventType = "depart"
	// EvPreemptRelease: the preemption planner released a victim's
	// reservations to make room for a higher-priority arrival.
	EvPreemptRelease EventType = "preempt-release"
	// EvFaultRelease: the evacuation path released a resident's
	// reservations because a resource it occupied failed.
	EvFaultRelease EventType = "fault-release"
	// EvRelocate: a released victim re-committed on its new placement.
	EvRelocate EventType = "relocate"
	// EvEvict: a released victim could not be re-placed; it holds nothing
	// and is gone. No reservation delta (the release was journaled).
	EvEvict EventType = "evict"
	// EvFailTile / EvFailLink: a resource failed at run time.
	EvFailTile EventType = "fail-tile"
	EvFailLink EventType = "fail-link"
	// EvRestoreTile / EvRestoreLink: a failed resource rejoined.
	EvRestoreTile EventType = "restore-tile"
	EvRestoreLink EventType = "restore-link"
)

// TileDelta is one tile's aggregated reservation change. Util is carried
// as math.Float64bits of the plan's aggregated utilisation delta, so the
// JSON round-trip is exact and replay reproduces the live platform's
// float arithmetic bit for bit.
type TileDelta struct {
	Tile      arch.TileID `json:"tile"`
	MemBytes  int64       `json:"mem,omitempty"`
	UtilBits  uint64      `json:"util,omitempty"`
	Occupants int         `json:"occ,omitempty"`
	InBps     int64       `json:"in,omitempty"`
	OutBps    int64       `json:"out,omitempty"`
}

// LinkDelta is one link's aggregated bandwidth change.
type LinkDelta struct {
	Link arch.LinkID `json:"link"`
	Bps  int64       `json:"bps"`
}

// Event is one journal record. Seq is assigned by the writer at Append
// time and is strictly increasing; it doubles as the replay order.
type Event struct {
	Seq  uint64    `json:"seq"`
	Type EventType `json:"type"`
	// App names the application for reservation-bearing events.
	App string `json:"app,omitempty"`
	// Priority is the application's QoS priority (admissions and
	// relocations), so replay can rebuild the resident set's classes.
	Priority int `json:"prio,omitempty"`
	// Tile / Link name the failed or restored resource for fault events.
	Tile arch.TileID `json:"ftile,omitempty"`
	Link arch.LinkID `json:"flink,omitempty"`
	// Tiles and Links are the reservation deltas, sorted by resource ID.
	Tiles []TileDelta `json:"tiles,omitempty"`
	Links []LinkDelta `json:"links,omitempty"`
}

// FromDeltas converts a core plan's exported deltas to journal form.
func FromDeltas(tiles []core.TileReservation, links []core.LinkReservation) ([]TileDelta, []LinkDelta) {
	ts := make([]TileDelta, len(tiles))
	for i, t := range tiles {
		ts[i] = TileDelta{
			Tile:      t.Tile,
			MemBytes:  t.MemBytes,
			UtilBits:  math.Float64bits(t.Util),
			Occupants: t.Occupants,
			InBps:     t.InBps,
			OutBps:    t.OutBps,
		}
	}
	ls := make([]LinkDelta, len(links))
	for i, l := range links {
		ls[i] = LinkDelta{Link: l.Link, Bps: l.Bps}
	}
	return ts, ls
}

// Reservations converts the event's deltas back to core plan form.
func (e *Event) Reservations() ([]core.TileReservation, []core.LinkReservation) {
	ts := make([]core.TileReservation, len(e.Tiles))
	for i, t := range e.Tiles {
		ts[i] = core.TileReservation{
			Tile:      t.Tile,
			MemBytes:  t.MemBytes,
			Util:      math.Float64frombits(t.UtilBits),
			Occupants: t.Occupants,
			InBps:     t.InBps,
			OutBps:    t.OutBps,
		}
	}
	ls := make([]core.LinkReservation, len(e.Links))
	for i, l := range e.Links {
		ls[i] = core.LinkReservation{Link: l.Link, Bps: l.Bps}
	}
	return ts, ls
}

// record is one serialized journal line: an event line (Event set), a
// batch seal (Seal set), or a segment-head snapshot (Snap set, written
// by Rotate as the first line of a new segment). Event stays a raw
// message so the hash covers the exact bytes on the wire: hashing a
// decoded-and-re-marshaled event would let any tampering that survives
// the decoder slip through — json.Unmarshal matches object keys
// case-insensitively, so a single case-flipped bit in a key name
// decodes to the identical event.
type record struct {
	Event json.RawMessage `json:"event,omitempty"`
	// Hash is the hex sha256 of the event's JSON payload bytes.
	Hash string    `json:"hash,omitempty"`
	Seal *seal     `json:"seal,omitempty"`
	Snap *snapshot `json:"snap,omitempty"`
}

// snapshot is the head record of a rotated segment: the chain seed it
// continues from (the previous segment's final seal) and the last
// sequence number assigned before the rotation. It is not hashed — its
// integrity comes from the seed itself: any tampering breaks continuity
// with the previous segment's verified chain (VerifyChain pins it), and
// the events it introduces are sealed under that seed.
type snapshot struct {
	Seed string `json:"seed"`
	Seq  uint64 `json:"seq"`
}

// seal closes one batch: N events since the previous seal, their Merkle
// root, the previous chain hash and the new chain hash
// sha256(prev ‖ root).
type seal struct {
	N     int    `json:"n"`
	Root  string `json:"root"`
	Prev  string `json:"prev"`
	Chain string `json:"chain"`
}

// genesis is the chain hash before the first seal.
var genesis = hex.EncodeToString(make([]byte, sha256.Size))

// eventHash hashes an event's JSON payload bytes exactly as written.
func eventHash(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// merkleRoot folds the record hashes into a binary Merkle root. Odd
// levels promote the last node unchanged (Bitcoin-style duplication
// admits a forged batch from a duplicated leaf; promotion does not). An
// empty batch has the zero root.
func merkleRoot(hashes []string) (string, error) {
	if len(hashes) == 0 {
		return genesis, nil
	}
	level := make([][]byte, len(hashes))
	for i, h := range hashes {
		b, err := hex.DecodeString(h)
		if err != nil || len(b) != sha256.Size {
			return "", fmt.Errorf("journal: malformed record hash %q", h)
		}
		level[i] = b
	}
	buf := make([]byte, 0, 2*sha256.Size)
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			buf = append(append(buf[:0], level[i]...), level[i+1]...)
			sum := sha256.Sum256(buf)
			h := make([]byte, sha256.Size)
			copy(h, sum[:])
			next = append(next, h)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return hex.EncodeToString(level[0]), nil
}

// chainHash advances the chain over one batch root.
func chainHash(prev, root string) string {
	sum := sha256.Sum256([]byte(prev + root))
	return hex.EncodeToString(sum[:])
}

// Options tunes a Writer.
type Options struct {
	// BatchSize seals a batch after this many events (≤0 selects 64).
	BatchSize int
	// Syncer, when non-nil, is invoked after every flush that precedes
	// an acknowledgement (Sync, Flush, Close) and by the SetSyncEvery
	// periodic policy, pushing the flushed bytes to stable storage.
	// Without it, an ack only means the bytes reached the wrapped
	// io.Writer — for an *os.File that is the OS page cache, which a
	// power loss discards.
	Syncer Syncer
	// SyncEvery fsyncs after every n-th appended event even without an
	// explicit Sync call (0 = only on acks). Ignored without a Syncer.
	SyncEvery int
}

// Syncer pushes previously written bytes to stable storage. *os.File
// satisfies it; the fake syncers in the crash tests model a volatile
// page cache in front of a durable store.
type Syncer interface {
	Sync() error
}

// wmsg is one unit of work for the writer goroutine: an encoded line to
// write, an ack to close once everything queued before it has been
// flushed (and fsynced, when a Syncer is configured), a swap to a new
// segment's writer, or a combination.
type wmsg struct {
	line []byte
	ack  chan struct{}
	swap *segment
}

// segment is a rotation target: the new output writer and its syncer.
type segment struct {
	w    io.Writer
	sync Syncer
}

// Writer is the journaling sink. Append is safe for concurrent use; the
// IO runs on a dedicated goroutine so callers never block on the
// underlying writer (beyond queue backpressure). Close seals the final
// batch and flushes.
type Writer struct {
	mu      sync.Mutex
	seq     uint64
	pending []string // record hashes of the unsealed batch
	prev    string   // chain hash after the last seal
	batch   int
	msgs    chan wmsg
	done    chan struct{}
	closed  bool

	// syncEvery is the periodic-fsync policy: the writer goroutine
	// invokes the segment's Syncer after every n-th event line (0 = only
	// on acks). Atomic so SetSyncEvery works mid-stream.
	syncEvery atomic.Int64

	errMu sync.Mutex
	err   error
}

// NewWriter starts a journal writer over w. The caller keeps ownership
// of w and closes it after Writer.Close returns.
func NewWriter(w io.Writer, opts Options) *Writer {
	return newWriter(w, genesis, 0, opts)
}

// newWriter starts a writer whose chain stands at the given hash and
// sequence number.
func newWriter(w io.Writer, chain string, seq uint64, opts Options) *Writer {
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 64
	}
	jw := &Writer{
		prev:  chain,
		seq:   seq,
		batch: batch,
		msgs:  make(chan wmsg, 1024),
		done:  make(chan struct{}),
	}
	jw.syncEvery.Store(int64(opts.SyncEvery))
	go jw.run(w, opts.Syncer)
	return jw
}

// SetSyncEvery adjusts the periodic-fsync policy: the current segment's
// Syncer runs after every n-th appended event, bounding how many events
// a crash between explicit Syncs can lose to the page cache (n ≤ 0
// fsyncs only when an ack — Sync, Flush, Close, Rotate — demands it).
// No-op without a Syncer.
func (w *Writer) SetSyncEvery(n int) {
	if n < 0 {
		n = 0
	}
	w.syncEvery.Store(int64(n))
}

// run is the writer goroutine: it drains encoded lines into a buffered
// writer, flushing when the queue goes idle or an ack is requested, and
// fsyncing through the segment's Syncer before any ack is released —
// that ordering is what lets Sync be a durability point rather than
// just a flush.
func (w *Writer) run(out io.Writer, sync Syncer) {
	defer close(w.done)
	bw := bufio.NewWriter(out)
	var sinceSync int64
	fsync := func() {
		if sync == nil {
			return
		}
		if err := sync.Sync(); err != nil {
			w.setErr(err)
		}
		sinceSync = 0
	}
	for m := range w.msgs {
		if m.swap != nil {
			// Rotation: the old segment is complete (its final seal is
			// already queued ahead of the swap), so flush and fsync it
			// before a single byte lands in the new one.
			if err := bw.Flush(); err != nil {
				w.setErr(err)
			}
			fsync()
			bw = bufio.NewWriter(m.swap.w)
			sync = m.swap.sync
			sinceSync = 0
		}
		if len(m.line) > 0 {
			if _, err := bw.Write(m.line); err != nil {
				w.setErr(err)
			}
			sinceSync++
		}
		if m.ack != nil || len(w.msgs) == 0 {
			if err := bw.Flush(); err != nil {
				w.setErr(err)
			}
		}
		if m.ack != nil {
			// An ack is a durability promise when a Syncer is configured:
			// fsync before releasing the waiter.
			fsync()
			close(m.ack)
		} else if n := w.syncEvery.Load(); n > 0 && sinceSync >= n {
			if err := bw.Flush(); err != nil {
				w.setErr(err)
			}
			fsync()
		}
	}
	if err := bw.Flush(); err != nil {
		w.setErr(err)
	}
	fsync()
}

func (w *Writer) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

// Err returns the first error the writer hit, if any.
func (w *Writer) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// Append stamps the event with the next sequence number, hashes it, and
// queues it for the writer goroutine, returning the assigned sequence
// (0 after Close). Callers emitting reservation events do so while
// holding the lock that serializes the commit, which makes journal order
// equal commit order — the property bit-for-bit replay depends on.
func (w *Writer) Append(e Event) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0
	}
	w.seq++
	e.Seq = w.seq
	payload, err := json.Marshal(&e)
	if err != nil {
		w.setErr(err)
		return e.Seq
	}
	hash := eventHash(payload)
	line, err := json.Marshal(record{Event: payload, Hash: hash})
	if err != nil {
		w.setErr(err)
		return e.Seq
	}
	w.msgs <- wmsg{line: append(line, '\n')}
	w.pending = append(w.pending, hash)
	if len(w.pending) >= w.batch {
		w.sealLocked()
	}
	return e.Seq
}

// sealLocked closes the current batch under w.mu.
func (w *Writer) sealLocked() {
	if len(w.pending) == 0 {
		return
	}
	root, err := merkleRoot(w.pending)
	if err != nil {
		w.setErr(err)
		return
	}
	s := seal{N: len(w.pending), Root: root, Prev: w.prev, Chain: chainHash(w.prev, root)}
	line, err := json.Marshal(record{Seal: &s})
	if err != nil {
		w.setErr(err)
		return
	}
	w.msgs <- wmsg{line: append(line, '\n')}
	w.prev = s.Chain
	w.pending = w.pending[:0]
}

// Flush seals the current batch (if any events are pending), so
// everything appended so far joins the verifiable prefix, and waits for
// the writer goroutine to push it to the underlying writer.
func (w *Writer) Flush() {
	ack := make(chan struct{})
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.sealLocked()
	w.msgs <- wmsg{ack: ack}
	w.mu.Unlock()
	<-ack
}

// Sync waits for every line queued so far to reach the underlying
// writer — and, when a Syncer is configured, stable storage: the writer
// goroutine invokes it after the flush and before the ack, so a crash
// (or power loss) after Sync returns cannot lose an acknowledged event.
// Without a Syncer the ack only covers the wrapped io.Writer, which for
// a file means the OS page cache. Sync does NOT seal the pending batch;
// the crash-simulation tests use it to materialize exactly the torn-tail
// state a real crash leaves: events on disk past the last seal,
// unprotected by the chain.
func (w *Writer) Sync() {
	ack := make(chan struct{})
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.msgs <- wmsg{ack: ack}
	w.mu.Unlock()
	<-ack
}

// Rotate seals the chain and starts a new segment: the pending batch is
// sealed into the current output, which is flushed and fsynced, and all
// subsequent lines go to next — whose first record is a snapshot head
// carrying the chain seed (the previous segment's final seal) and the
// last assigned sequence number. sync is the new segment's Syncer (nil
// = none). A rotated-away segment always ends on a seal, so replay cost
// per segment stays bounded: verify and replay the segments in order
// with VerifyChain / manager.ReplayEvents. Rotate returns once the
// old segment is durably complete; it is an error after Close.
func (w *Writer) Rotate(next io.Writer, sync Syncer) error {
	ack := make(chan struct{})
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("journal: rotate after close")
	}
	w.sealLocked()
	head, err := json.Marshal(record{Snap: &snapshot{Seed: w.prev, Seq: w.seq}})
	if err != nil {
		w.mu.Unlock()
		w.setErr(err)
		return err
	}
	// Queue the swap and the new segment's head atomically with respect
	// to Append (both under w.mu), so no event line can slip between the
	// swap and the head record. The ack rides on the head line: when it
	// closes, the old segment is flushed+fsynced and the head is down.
	w.msgs <- wmsg{swap: &segment{w: next, sync: sync}, line: append(head, '\n'), ack: ack}
	w.mu.Unlock()
	<-ack
	return w.Err()
}

// Close seals the final batch, stops the writer goroutine and waits for
// the last bytes to flush. Append after Close is a silent no-op.
func (w *Writer) Close() error {
	w.mu.Lock()
	if !w.closed {
		w.sealLocked()
		w.closed = true
		close(w.msgs)
	}
	w.mu.Unlock()
	<-w.done
	return w.Err()
}

// Verify reads a journal stream and returns the events of every sealed
// batch, in order. The returned tail count is how many trailing events
// were appended after the last seal (a crash mid-batch); they are
// authentic-looking but unprotected, so replay must ignore them. Any
// corruption inside the sealed region — a flipped byte in an event
// payload, a wrong record hash, a broken Merkle root or chain hash, a
// seal counting the wrong number of events — is an error.
//
// A rotated segment (one starting with a snapshot head record) verifies
// standalone against its self-declared seed; use VerifyChain to pin the
// seed against the preceding segment's actual seal.
func Verify(r io.Reader) ([]Event, int, error) {
	events, tail, _, _, _, err := verifySegment(r, "", 0)
	return events, tail, err
}

// VerifyChain verifies a rotated sequence of journal segments as one
// log and returns the sealed events of all segments in order plus the
// final segment's unsealed tail count. It is Recover without the chain
// position; see there for what is checked.
func VerifyChain(segments ...io.Reader) ([]Event, int, error) {
	rec, err := Recover(segments...)
	return rec.Events, rec.Tail, err
}

// verifySegment verifies one segment. wantSeed/wantSeq, when wantSeed is
// non-empty, pin the snapshot head (chain continuity across a rotation);
// empty wantSeed accepts either a genesis segment or a self-declared
// head. It returns the sealed events, the unsealed tail count, the head
// (nil for a genesis segment), and the chain hash and sequence number
// the segment ends on.
func verifySegment(r io.Reader, wantSeed string, wantSeq uint64) (
	sealed []Event, tail int, head *snapshot, endChain string, endSeq uint64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var pendingEvents []Event
	var pendingHashes []string
	prev := genesis
	lineNo := 0
	sawRecord := false
	var lastSeq uint64
	fail := func(e error) ([]Event, int, *snapshot, string, uint64, error) {
		return nil, 0, nil, "", 0, e
	}
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fail(fmt.Errorf("journal: line %d: %w", lineNo, err))
		}
		switch {
		case rec.Snap != nil:
			if sawRecord {
				return fail(fmt.Errorf("journal: line %d: snapshot record not at segment head", lineNo))
			}
			if wantSeed != "" && (rec.Snap.Seed != wantSeed || rec.Snap.Seq != wantSeq) {
				return fail(fmt.Errorf("journal: line %d: rotation head (seed %s, seq %d) does not continue the previous segment (seal %s, seq %d)",
					lineNo, rec.Snap.Seed, rec.Snap.Seq, wantSeed, wantSeq))
			}
			head = rec.Snap
			prev = head.Seed
			lastSeq = head.Seq
			sawRecord = true
		case len(rec.Event) > 0:
			if hash := eventHash(rec.Event); hash != rec.Hash {
				return fail(fmt.Errorf("journal: line %d: record hash mismatch (event tampered)", lineNo))
			}
			var e Event
			if err := json.Unmarshal(rec.Event, &e); err != nil {
				return fail(fmt.Errorf("journal: line %d: %w", lineNo, err))
			}
			if e.Seq <= lastSeq {
				return fail(fmt.Errorf("journal: line %d: sequence %d not increasing (last %d)",
					lineNo, e.Seq, lastSeq))
			}
			lastSeq = e.Seq
			pendingEvents = append(pendingEvents, e)
			pendingHashes = append(pendingHashes, rec.Hash)
		case rec.Seal != nil:
			s := rec.Seal
			if s.N != len(pendingEvents) {
				return fail(fmt.Errorf("journal: line %d: seal counts %d events, batch has %d",
					lineNo, s.N, len(pendingEvents)))
			}
			if s.Prev != prev {
				return fail(fmt.Errorf("journal: line %d: chain broken (prev %s, expected %s)",
					lineNo, s.Prev, prev))
			}
			root, err := merkleRoot(pendingHashes)
			if err != nil {
				return fail(fmt.Errorf("journal: line %d: %w", lineNo, err))
			}
			if root != s.Root {
				return fail(fmt.Errorf("journal: line %d: merkle root mismatch", lineNo))
			}
			if chain := chainHash(s.Prev, s.Root); chain != s.Chain {
				return fail(fmt.Errorf("journal: line %d: chain hash mismatch", lineNo))
			}
			prev = s.Chain
			sealed = append(sealed, pendingEvents...)
			pendingEvents = pendingEvents[:0]
			pendingHashes = pendingHashes[:0]
		default:
			return fail(fmt.Errorf("journal: line %d: neither event, seal nor snapshot", lineNo))
		}
		sawRecord = true
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	if wantSeed != "" && head == nil && sawRecord {
		return fail(fmt.Errorf("journal: expected a rotation head continuing seal %s, found none", wantSeed))
	}
	return sealed, len(pendingEvents), head, prev, lastSeq, nil
}
