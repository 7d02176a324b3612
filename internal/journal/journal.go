// Package journal is the durable admission ledger: an append-only,
// hash-chained event log of everything that changes the platform's
// reservation state — admissions, departures, preemption releases,
// relocations, evictions, faults and restores. A manager wired to a
// journal can crash at any instant and be rebuilt bit-for-bit by
// replaying the sealed prefix into a fresh platform
// (manager.ReplayEvents).
//
// Integrity layout, following the classic audit-log construction (hash
// chain over Merkle-sealed batches, cf. Crosby & Wallach, USENIX
// Security 2009): every event is one length-prefixed binary frame
// carrying the SHA-256 of its payload bytes exactly as they lie on disk
// (codec.go has the layout); events are grouped into batches, and each
// batch is sealed by a frame carrying the Merkle root of the batch's
// record hashes plus a chain hash sha256(prevChain ‖ root). Any flipped
// byte inside the sealed region breaks a frame header, a record hash,
// the Merkle root or the chain; any sealed prefix of the file verifies
// on its own.
//
// Torn versus corrupt: a crash leaves a prefix of what the writer meant
// to write, so the only damage it can do is a last frame whose header or
// declared length runs past the end of the file. That, and complete
// events after the last seal, is the torn tail: reported, never
// replayed, and truncated by RecoverFiles. Everything else — a bad
// header, a complete frame with a wrong hash, a seal that does not
// match, anything at all after a malformed frame — is corruption: an
// error, and no file is touched.
//
// Writes stay off the admission hot path: Append encodes into a reused
// buffer, hashes and stamps sequence numbers synchronously (about a
// microsecond, and the caller holds the platform lock anyway, which is
// what makes journal order equal commit order), while the encoded
// frames are handed to a dedicated writer goroutine that batches them to
// the underlying io.Writer.
package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"rtsm/internal/arch"
	"rtsm/internal/core"
)

// EventType discriminates journal events; it is the type byte on disk.
type EventType uint8

// Event types. Reservation-bearing events (Admit and Relocate carry the
// new reservations; Depart, PreemptRelease and FaultRelease carry the
// released ones) record per-resource deltas; fault events name one
// resource.
const (
	// EvAdmit: an admission committed its reservations.
	EvAdmit EventType = iota + 1
	// EvDepart: a resident stopped and released its reservations.
	EvDepart
	// EvPreemptRelease: the preemption planner released a victim's
	// reservations to make room for a higher-priority arrival.
	EvPreemptRelease
	// EvFaultRelease: the evacuation path released a resident's
	// reservations because a resource it occupied failed.
	EvFaultRelease
	// EvRelocate: a released victim re-committed on its new placement.
	EvRelocate
	// EvEvict: a released victim could not be re-placed; it holds nothing
	// and is gone. No reservation delta (the release was journaled).
	EvEvict
	// EvFailTile / EvFailLink: a resource failed at run time.
	EvFailTile
	EvFailLink
	// EvRestoreTile / EvRestoreLink: a failed resource rejoined.
	EvRestoreTile
	EvRestoreLink
)

var eventNames = [...]string{
	EvAdmit: "admit", EvDepart: "depart", EvPreemptRelease: "preempt-release",
	EvFaultRelease: "fault-release", EvRelocate: "relocate", EvEvict: "evict",
	EvFailTile: "fail-tile", EvFailLink: "fail-link",
	EvRestoreTile: "restore-tile", EvRestoreLink: "restore-link",
}

// String names the event type as the text form of the journal did.
func (t EventType) String() string {
	if t < EvAdmit || int(t) >= len(eventNames) {
		return fmt.Sprintf("event-type-%d", uint8(t))
	}
	return eventNames[t]
}

// Event is one journal record. Seq is assigned by the writer at Append
// time and is strictly increasing; it doubles as the replay order.
type Event struct {
	Seq  uint64
	Type EventType
	// App names the application for reservation-bearing events.
	App string
	// Priority is the application's QoS priority (admissions and
	// relocations), so replay can rebuild the resident set's classes.
	Priority int
	// Tile / Link name the failed or restored resource for fault events.
	Tile arch.TileID
	Link arch.LinkID
	// Tiles and Links are the reservation deltas exactly as the plan
	// exported them (core.Plan.Deltas): sorted by resource ID, each
	// resource once.
	Tiles []core.TileReservation
	Links []core.LinkReservation
}

// Options tunes a Writer.
type Options struct {
	// BatchSize seals a batch after this many events (≤0 selects 64).
	BatchSize int
	// Syncer, when non-nil, is invoked after every flush that precedes
	// an acknowledgement (Sync, Flush, Close) and by the SyncEvery
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

// wmsg is one unit of work for the writer goroutine: encoded frames to
// write, an ack to close once everything queued before it has been
// flushed (and fsynced, when a Syncer is configured), a swap to a new
// segment's writer, or a combination.
type wmsg struct {
	frame []byte
	ack   chan struct{}
	swap  *target
}

// target is where a rotation sends the frames that follow: the new
// segment's writer and its syncer.
type target struct {
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
	pending []Hash // record hashes of the unsealed batch
	prev    Hash   // chain hash after the last seal
	buf     []byte // Append's encoding scratch
	batch   int
	msgs    chan wmsg
	done    chan struct{}
	closed  bool

	errMu sync.Mutex
	err   error
}

// NewWriter starts a journal writer over w. The caller keeps ownership
// of w and closes it after Writer.Close returns.
func NewWriter(w io.Writer, opts Options) *Writer {
	return newWriter(w, magic[:], Hash{}, 0, opts)
}

// newWriter starts a writer whose chain stands at the given hash and
// sequence number; preamble (the magic, and a head frame when the chain
// is being continued) opens the segment.
func newWriter(w io.Writer, preamble []byte, chain Hash, seq uint64, opts Options) *Writer {
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
	go jw.run(w, opts.Syncer, opts.SyncEvery, preamble)
	return jw
}

// run is the writer goroutine: it drains encoded frames into a buffered
// writer, flushing when the queue goes idle or an ack is requested, and
// fsyncing through the segment's Syncer before any ack is released —
// that ordering is what lets Sync be a durability point rather than
// just a flush.
func (w *Writer) run(out io.Writer, sync Syncer, syncEvery int, preamble []byte) {
	defer close(w.done)
	bw := bufio.NewWriter(out)
	// Down at once: a segment whose head never reached the file would
	// stop the next recovery. (A bufio write error sticks; Flush has it.)
	_, _ = bw.Write(preamble)
	if err := bw.Flush(); err != nil {
		w.setErr(err)
	}
	sinceSync := 0
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
		if len(m.frame) > 0 {
			if _, err := bw.Write(m.frame); err != nil {
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
		} else if syncEvery > 0 && sinceSync >= syncEvery {
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

// Append stamps the event with the next sequence number, encodes and
// hashes it, and queues the frame for the writer goroutine, returning
// the assigned sequence (0 after Close). Callers emitting reservation
// events do so while holding the lock that serializes the commit, which
// makes journal order equal commit order — the property bit-for-bit
// replay depends on.
func (w *Writer) Append(e Event) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0
	}
	w.seq++
	e.Seq = w.seq
	// Encode behind a placeholder header, which needs the length.
	b := appendEvent(append(w.buf[:0], make([]byte, headerLen)...), &e)
	hash := Hash(sha256.Sum256(b[headerLen:]))
	b = append(b, hash[:]...)
	w.buf = b
	if len(b)-headerLen > maxBody {
		w.setErr(fmt.Errorf("journal: event %d encodes to %d bytes, over the %d-byte frame limit", e.Seq, len(b)-headerLen, maxBody))
		return e.Seq
	}
	appendHeader(b[:0], kindEvent, len(b)-headerLen)
	// The queue outlives this call, the scratch buffer does not.
	w.msgs <- wmsg{frame: append([]byte(nil), b...)}
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
	n := len(w.pending)
	root := merkleRoot(w.pending)
	chain := chainHash(w.prev, root)
	b := appendHeader(make([]byte, 0, headerLen+sealLen), kindSeal, sealLen)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = append(append(append(b, root[:]...), w.prev[:]...), chain[:]...)
	w.msgs <- wmsg{frame: b}
	w.prev = chain
	w.pending = w.pending[:0]
}

// segmentHead encodes what opens a segment that continues a chain: the
// magic and a head frame carrying the chain seed and the last assigned
// sequence number.
func segmentHead(chain Hash, seq uint64) []byte {
	b := append(make([]byte, 0, len(magic)+headerLen+headLen), magic[:]...)
	b = appendHeader(b, kindHead, headLen)
	return binary.LittleEndian.AppendUint64(append(b, chain[:]...), seq)
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

// Sync waits for every frame queued so far to reach the underlying
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
// subsequent frames go to next — which opens with a head frame
// carrying the chain seed (the previous segment's final seal) and the
// last assigned sequence number. sync is the new segment's Syncer (nil
// = none). A rotated-away segment always ends on a seal, so replay cost
// per segment stays bounded: verify and replay the segments in order
// with Recover / manager.ReplayEvents. Rotate returns once the
// old segment is durably complete; it is an error after Close.
func (w *Writer) Rotate(next io.Writer, sync Syncer) error {
	ack := make(chan struct{})
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("journal: rotate after close")
	}
	w.sealLocked()
	// Queue the swap and the new segment's head atomically with respect
	// to Append (both under w.mu), so no event frame can slip between the
	// swap and the head frame. The ack rides on the head: when it closes,
	// the old segment is flushed+fsynced and the head is down.
	w.msgs <- wmsg{swap: &target{w: next, sync: sync}, frame: segmentHead(w.prev, w.seq), ack: ack}
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
