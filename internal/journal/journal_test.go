package journal_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
)

// testPlatform builds a small mesh with one tile per router, enough to
// exercise delta replay across several regions.
func testPlatform() *arch.Platform {
	p := arch.NewMesh("journal-test", 4, 4, 2_000_000_000)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			p.AttachTile(arch.TileSpec{
				Name:     fmt.Sprintf("t%d_%d", x, y),
				Type:     arch.TypeARM,
				At:       arch.Pt(x, y),
				ClockHz:  200_000_000,
				MemBytes: 1 << 20,
				NICapBps: 1_000_000_000,
			})
		}
	}
	return p
}

// randomEvents generates a deterministic mixed event stream: admissions
// with random reservation deltas, departures of random still-resident
// apps (releasing exactly what they reserved), and fault/restore flips.
func randomEvents(rng *rand.Rand, p *arch.Platform, n int) []journal.Event {
	type resident struct {
		name  string
		tiles []core.TileReservation
		links []core.LinkReservation
	}
	var residents []resident
	var out []journal.Event
	failedTiles := map[arch.TileID]bool{}
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(residents) == 0 && r < 8:
			name := fmt.Sprintf("app%d", i)
			nt := 1 + rng.Intn(3)
			tiles := make([]core.TileReservation, 0, nt)
			seen := map[arch.TileID]bool{}
			for j := 0; j < nt; j++ {
				tid := arch.TileID(rng.Intn(len(p.Tiles)))
				if seen[tid] {
					continue
				}
				seen[tid] = true
				tiles = append(tiles, core.TileReservation{
					Tile:      tid,
					MemBytes:  int64(rng.Intn(4096)),
					Util:      rng.Float64() * 0.01,
					Occupants: 1,
					InBps:     int64(rng.Intn(1000)),
					OutBps:    int64(rng.Intn(1000)),
				})
			}
			links := []core.LinkReservation{{
				Link: arch.LinkID(rng.Intn(len(p.Links))),
				Bps:  int64(rng.Intn(10000)),
			}}
			residents = append(residents, resident{name, tiles, links})
			out = append(out, journal.Event{Type: journal.EvAdmit, App: name,
				Priority: rng.Intn(3), Tiles: tiles, Links: links})
		case r < 8 && len(residents) > 0:
			k := rng.Intn(len(residents))
			v := residents[k]
			residents = append(residents[:k], residents[k+1:]...)
			out = append(out, journal.Event{Type: journal.EvDepart, App: v.name,
				Tiles: v.tiles, Links: v.links})
		default:
			tid := arch.TileID(rng.Intn(len(p.Tiles)))
			if failedTiles[tid] {
				delete(failedTiles, tid)
				out = append(out, journal.Event{Type: journal.EvRestoreTile, Tile: tid})
			} else {
				failedTiles[tid] = true
				out = append(out, journal.Event{Type: journal.EvFailTile, Tile: tid})
			}
		}
	}
	return out
}

// applyEvents replays a verified event stream onto a fresh platform, the
// minimal replay loop (manager.ReplayEvents layers resident bookkeeping
// on the same arithmetic).
func applyEvents(p *arch.Platform, events []journal.Event) {
	for i := range events {
		e := &events[i]
		switch e.Type {
		case journal.EvAdmit, journal.EvRelocate:
			core.ApplyDeltas(p, e.Tiles, e.Links, +1)
		case journal.EvDepart, journal.EvPreemptRelease, journal.EvFaultRelease:
			core.ApplyDeltas(p, e.Tiles, e.Links, -1)
		case journal.EvFailTile:
			p.FailTile(e.Tile)
		case journal.EvRestoreTile:
			p.RestoreTile(e.Tile)
		case journal.EvFailLink:
			p.FailLink(e.Link)
		case journal.EvRestoreLink:
			p.RestoreLink(e.Link)
		}
	}
}

// buildJournal writes the events through a Writer, optionally leaving
// the last batch unsealed (crash simulation: no Close).
func buildJournal(t testing.TB, events []journal.Event, batch int, sealAll bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, journal.Options{BatchSize: batch})
	for _, e := range events {
		w.Append(e)
	}
	if sealAll {
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	} else {
		// Crash simulation: drain the IO queue but never seal, leaving
		// events past the last batch-size seal as a torn tail.
		w.Sync()
	}
	return buf.Bytes()
}

// TestJournalRoundTrip is the straight-line case: everything sealed,
// everything verifies, replay matches a direct application of the same
// deltas.
func TestJournalRoundTrip(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(1))
	events := randomEvents(rng, p, 200)
	data := buildJournal(t, events, 16, true)

	got, tail, err := journal.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if tail != 0 {
		t.Fatalf("tail = %d after Close, want 0", tail)
	}
	if len(got) != len(events) {
		t.Fatalf("verified %d events, wrote %d", len(got), len(events))
	}
	direct := p.Clone()
	applyEvents(direct, events)
	replayed := p.Clone()
	applyEvents(replayed, got)
	if err := arch.PlatformsIdentical(direct, replayed); err != nil {
		t.Fatalf("replay diverged from direct application: %v", err)
	}
}

// TestJournalTornTail pins the crash semantics: events appended after
// the last seal verify as tail, not as sealed state.
func TestJournalTornTail(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(2))
	events := randomEvents(rng, p, 50)
	data := buildJournal(t, events, 16, false)
	sealed, tail, err := journal.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if want := len(events) % 16; tail != want {
		t.Fatalf("tail = %d, want %d", tail, want)
	}
	if len(sealed)+tail != len(events) {
		t.Fatalf("sealed %d + tail %d != written %d", len(sealed), tail, len(events))
	}
}

// frame is one frame of a segment as the test walks it, independently of
// the verifier: the eight-byte magic, then six-byte headers whose bytes
// 1..4 are the little-endian body length.
type frame struct {
	kind     byte
	off, end int
}

func frames(t testing.TB, data []byte) []frame {
	t.Helper()
	var out []frame
	for off := 8; off < len(data); {
		end := off + 6 + int(binary.LittleEndian.Uint32(data[off+1:]))
		if end > len(data) {
			t.Fatalf("frame at %d runs to %d, past the %d-byte journal", off, end, len(data))
		}
		out = append(out, frame{data[off], off, end})
		off = end
	}
	return out
}

// sealedLength returns the byte length of the sealed region: everything
// up to and including the last seal frame.
func sealedLength(t testing.TB, data []byte) int {
	end := 0
	for _, f := range frames(t, data) {
		if f.kind == 'S' {
			end = f.end
		}
	}
	return end
}

// FuzzJournalChain is the ledger-integrity property suite:
//
//  1. any prefix of a journal verifies — cut at a frame boundary or
//     inside a frame, earlier seals stand on their own and later events
//     count as torn tail,
//  2. any single changed byte inside the sealed region is detected: the
//     record hash covers the exact payload bytes on disk, the seals
//     vouch for the hashes, and every frame header checks itself,
//  3. replaying the verified events is deterministic: two replays land on
//     bit-for-bit identical platforms.
func FuzzJournalChain(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(8), uint16(100), uint8(0xff))
	f.Add(int64(7), uint8(3), uint8(1), uint16(9), uint8(0x80))
	f.Add(int64(42), uint8(200), uint8(64), uint16(9999), uint8(0x01))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, batch uint8, flip uint16, mask uint8) {
		if n == 0 {
			n = 1
		}
		if mask == 0 {
			mask = 0xff
		}
		p := testPlatform()
		rng := rand.New(rand.NewSource(seed))
		events := randomEvents(rng, p, int(n))
		data := buildJournal(t, events, int(batch), true)

		sealed, tail, err := journal.Verify(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("pristine journal failed verification: %v", err)
		}
		if tail != 0 || len(sealed) != len(events) {
			t.Fatalf("pristine journal: %d sealed + %d tail, wrote %d",
				len(sealed), tail, len(events))
		}

		// Property 1: every frame-boundary prefix verifies, and so does a
		// cut inside each frame.
		want, pending := 0, 0
		for _, fr := range frames(t, data) {
			cut := fr.off + int(flip)%(fr.end-fr.off)
			for _, end := range []int{cut, fr.end} {
				if end == fr.end {
					switch fr.kind {
					case 'E':
						pending++
					case 'S':
						want, pending = want+pending, 0
					}
				}
				s, tl, err := journal.Verify(bytes.NewReader(data[:end]))
				if err != nil {
					t.Fatalf("prefix of %d bytes failed verification: %v", end, err)
				}
				if len(s) != want || tl != pending {
					t.Fatalf("prefix of %d bytes yielded %d events + %d tail, want %d + %d",
						end, len(s), tl, want, pending)
				}
			}
		}

		// Property 2: a changed byte inside the sealed region is detected.
		if end := sealedLength(t, data); end > 0 {
			pos := int(flip) % end
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			if _, _, err := journal.Verify(bytes.NewReader(mut)); err == nil {
				t.Fatalf("byte %d of %d xor %#x went undetected", pos, end, mask)
			}
		}

		// Property 3: replay is deterministic.
		a, b := p.Clone(), p.Clone()
		applyEvents(a, sealed)
		applyEvents(b, sealed)
		if err := arch.PlatformsIdentical(a, b); err != nil {
			t.Fatalf("two replays of the same journal diverged: %v", err)
		}
	})
}

// pageCache models the OS page cache in front of stable storage: Write
// lands in volatile memory, Sync marks everything written so far
// durable, and Durable is what survives a simulated power loss.
type pageCache struct {
	mu         sync.Mutex
	buf        bytes.Buffer
	durableLen int
	syncs      int
}

func (c *pageCache) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *pageCache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durableLen = c.buf.Len()
	c.syncs++
	return nil
}

// Durable returns the bytes that survived the crash: only what a Sync
// call made stable.
func (c *pageCache) Durable() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()[:c.durableLen]...)
}

func (c *pageCache) Syncs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncs
}

// TestSyncWithoutSyncerIsNotDurable is the bug the Syncer hook fixes,
// kept as the control: Sync acks once bytes reach the wrapped io.Writer,
// so with a page cache in between, a crash after Sync still loses every
// acknowledged event.
func TestSyncWithoutSyncerIsNotDurable(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, p, 10)
	cache := &pageCache{}
	w := journal.NewWriter(cache, journal.Options{BatchSize: 4}) // no Syncer
	for _, e := range events {
		w.Append(e)
	}
	w.Sync() // acked — but only into the page cache
	if got := len(cache.Durable()); got != 0 {
		t.Fatalf("durable bytes without a Syncer = %d, want 0 (nothing ever fsynced)", got)
	}
}

// TestSyncInvokesSyncerBeforeAck pins the durability fix: with a Syncer
// configured, Sync fsyncs before acknowledging, so a crash immediately
// after Sync returns loses no acknowledged event.
func TestSyncInvokesSyncerBeforeAck(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(8))
	events := randomEvents(rng, p, 10)
	cache := &pageCache{}
	w := journal.NewWriter(cache, journal.Options{BatchSize: 4, Syncer: cache})
	for _, e := range events {
		w.Append(e)
	}
	w.Sync()
	// Crash now: only the durable bytes survive.
	sealed, tail, err := journal.Verify(bytes.NewReader(cache.Durable()))
	if err != nil {
		t.Fatalf("verify durable bytes: %v", err)
	}
	if len(sealed)+tail != len(events) {
		t.Fatalf("durable storage holds %d sealed + %d tail events, want all %d acknowledged",
			len(sealed), tail, len(events))
	}
	if cache.Syncs() == 0 {
		t.Fatal("Sync acked without invoking the Syncer")
	}
}

// TestSetSyncEveryPeriodicFsync pins the periodic policy: with
// SyncEvery configured, events become durable without any explicit Sync
// call, bounding the page-cache exposure window.
func TestSetSyncEveryPeriodicFsync(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(9))
	events := randomEvents(rng, p, 20)
	cache := &pageCache{}
	w := journal.NewWriter(cache, journal.Options{BatchSize: 64, Syncer: cache, SyncEvery: 5})
	for _, e := range events {
		w.Append(e)
	}
	// The fsyncs run on the writer goroutine; wait for the policy to
	// land at least one durable batch without ever calling Sync.
	deadline := time.Now().Add(5 * time.Second)
	for cache.Syncs() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cache.Syncs() == 0 {
		t.Fatal("SyncEvery never fsynced")
	}
	if len(cache.Durable()) == 0 {
		t.Fatal("periodic fsync marked nothing durable")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := len(cache.Durable()), cache.buf.Len(); got != want {
		t.Fatalf("close left %d of %d bytes undurable", want-got, want)
	}
}

// TestRotateChainsSegments pins the rotation contract: Rotate seals the
// old segment, the new segment opens with a head frame seeded by the
// previous seal, Recover accepts the pair (and replays it exactly
// like the unrotated stream), and any cross-segment tampering —
// flipped bytes, reordered or substituted segments — is detected.
func TestRotateChainsSegments(t *testing.T) {
	p := testPlatform()
	rng := rand.New(rand.NewSource(10))
	events := randomEvents(rng, p, 120)

	var seg1, seg2 bytes.Buffer
	w := journal.NewWriter(&seg1, journal.Options{BatchSize: 16})
	for _, e := range events[:70] {
		w.Append(e)
	}
	if err := w.Rotate(&seg2, nil); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	for _, e := range events[70:] {
		w.Append(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec, err := journal.Recover(bytes.NewReader(seg1.Bytes()), bytes.NewReader(seg2.Bytes()))
	if err != nil {
		t.Fatalf("verify chain: %v", err)
	}
	got := rec.Events
	if rec.Tail != 0 || len(got) != len(events) {
		t.Fatalf("chain verified %d events + %d tail, want %d + 0", len(got), rec.Tail, len(events))
	}
	// The rotated pair must replay bit-for-bit like the one-segment log.
	direct := p.Clone()
	applyEvents(direct, events)
	replayed := p.Clone()
	applyEvents(replayed, got)
	if err := arch.PlatformsIdentical(direct, replayed); err != nil {
		t.Fatalf("rotated replay diverged: %v", err)
	}
	// A later segment still verifies standalone against its declared seed.
	if _, _, err := journal.Verify(bytes.NewReader(seg2.Bytes())); err != nil {
		t.Fatalf("standalone verify of rotated segment: %v", err)
	}
	// Segment order is pinned by the seed chain.
	if _, err := journal.Recover(bytes.NewReader(seg2.Bytes()), bytes.NewReader(seg1.Bytes())); err == nil {
		t.Fatal("reordered segments verified")
	}
	// A flipped byte inside either sealed region breaks the chain.
	for i, seg := range [][]byte{seg1.Bytes(), seg2.Bytes()} {
		bad := append([]byte(nil), seg...)
		limit := sealedLength(t, bad)
		flip := limit / 2
		bad[flip] ^= 0x40
		segments := [][]byte{seg1.Bytes(), seg2.Bytes()}
		segments[i] = bad
		if _, err := journal.Recover(bytes.NewReader(segments[0]), bytes.NewReader(segments[1])); err == nil {
			t.Fatalf("flipped byte %d in segment %d went undetected", flip, i)
		}
	}
}

// TestEverySingleByteChangeIsDetected is FuzzJournalChain's second
// property, exhaustively, on a journal small enough to try it all: every
// byte of the sealed region, set to every other value it could hold.
func TestEverySingleByteChangeIsDetected(t *testing.T) {
	p := testPlatform()
	events := randomEvents(rand.New(rand.NewSource(3)), p, 3)
	data := buildJournal(t, events, 2, true)
	mut := append([]byte(nil), data...)
	r := bytes.NewReader(nil)
	for pos := range data {
		for mask := 1; mask < 256; mask++ {
			mut[pos] = data[pos] ^ byte(mask)
			r.Reset(mut)
			if got, tail, err := journal.Verify(r); err == nil {
				t.Fatalf("byte %d of %d xor %#x went undetected: %d events, %d torn", pos, len(data), mask, len(got), tail)
			}
		}
		mut[pos] = data[pos]
	}
}
