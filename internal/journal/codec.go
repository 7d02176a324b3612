package journal

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"rtsm/internal/arch"
	"rtsm/internal/core"
)

// On-disk layout. A segment is the magic followed by frames; every frame
// is a six-byte header and a body of the declared length:
//
//	magic   "rtsmjnl" | version (1)
//	header  kind | body length (uint32 LE) | check (XOR of the five bytes before it and 0xA5)
//	'E'     event payload | SHA-256 of the payload bytes
//	'S'     n (uint32 LE) | Merkle root | previous chain hash | chain hash   (raw 32-byte values)
//	'H'     chain seed (32 bytes) | last assigned seq (uint64 LE)            (first frame of a rotated segment)
//
// The event payload is: seq (uvarint), type (one byte), app (uvarint
// length + bytes), then priority, fault tile and fault link as varints,
// the tile deltas (uvarint count; per tile the id, memory, occupants,
// NI in and NI out as varints and Util as raw little-endian Float64bits,
// so replay repeats the live float arithmetic bit for bit) and the link
// deltas (uvarint count; id and bandwidth as varints).
//
// The length is fixed-width and the header carries its own check byte so
// that a frame boundary never depends on a byte nothing vouches for: a
// flipped bit in a variable-width length could stretch the last frames of
// a file past its end, where it would be indistinguishable from a torn
// write.
const (
	kindEvent = 'E'
	kindSeal  = 'S'
	kindHead  = 'H'

	headerLen = 6
	sealLen   = 4 + 3*sha256.Size
	headLen   = sha256.Size + 8
	// maxBody caps a frame body; a longer declared length is corruption,
	// not an allocation request.
	maxBody = 1 << 24
)

var magic = [8]byte{'r', 't', 's', 'm', 'j', 'n', 'l', 1}

// Hash is a raw SHA-256 value: a record hash, a Merkle root or a chain
// hash. The zero Hash is the chain position before the first seal.
type Hash [sha256.Size]byte

// String abbreviates the hash for error messages.
func (h Hash) String() string { return fmt.Sprintf("%x…", h[:6]) }

// appendHeader appends a frame header for a body of n bytes.
func appendHeader(b []byte, kind byte, n int) []byte {
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	return append(b, headerCheck(b[len(b)-5:]))
}

// headerCheck folds the kind and length bytes; any single changed byte
// of a header, the check included, makes it disagree.
func headerCheck(h []byte) byte { return h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4] ^ 0xA5 }

// appendEvent appends the event's payload encoding.
func appendEvent(b []byte, e *Event) []byte {
	b = binary.AppendUvarint(b, e.Seq)
	b = append(b, byte(e.Type))
	b = binary.AppendUvarint(b, uint64(len(e.App)))
	b = append(b, e.App...)
	b = binary.AppendVarint(b, int64(e.Priority))
	b = binary.AppendVarint(b, int64(e.Tile))
	b = binary.AppendVarint(b, int64(e.Link))
	b = binary.AppendUvarint(b, uint64(len(e.Tiles)))
	for i := range e.Tiles {
		t := &e.Tiles[i]
		b = binary.AppendVarint(b, int64(t.Tile))
		b = binary.AppendVarint(b, t.MemBytes)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Util))
		b = binary.AppendVarint(b, int64(t.Occupants))
		b = binary.AppendVarint(b, t.InBps)
		b = binary.AppendVarint(b, t.OutBps)
	}
	b = binary.AppendUvarint(b, uint64(len(e.Links)))
	for _, l := range e.Links {
		b = binary.AppendVarint(b, int64(l.Link))
		b = binary.AppendVarint(b, l.Bps)
	}
	return b
}

// Smallest encodings of one tile and one link delta, bounding the counts
// a payload of a given size can hold.
const (
	minTileLen = 5 + 8
	minLinkLen = 2
)

var errMalformed = errors.New("malformed event payload")

// uvarint decodes the unsigned varint at p[i:]. It returns the value and
// the index just past it, or -1 when the payload ends first or the value
// overflows 64 bits (binary.Uvarint's ten-byte rule).
func uvarint(p []byte, i int) (uint64, int) {
	var x uint64
	for s := uint(0); s < 64 && uint(i) < uint(len(p)); s += 7 {
		b := p[i]
		i++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1
			}
			return x | uint64(b)<<s, i
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// varint decodes the zig-zag varint at p[i:]; see uvarint.
func varint(p []byte, i int) (int64, int) {
	u, i := uvarint(p, i)
	return int64(u>>1) ^ -int64(u&1), i
}

// slabs hands out the delta slices of decoded events from shared backing
// arrays, one allocation per few hundred deltas instead of two per event,
// and interns application names: a depart repeats its admit's name, and
// every event of one application shares one string.
type slabs struct {
	tiles []core.TileReservation
	links []core.LinkReservation
	names map[string]string
}

// intern returns b as a string, allocating only a name not seen before.
func (s *slabs) intern(b []byte) string {
	name, ok := s.names[string(b)]
	if !ok {
		name = string(b)
		s.names[name] = name
	}
	return name
}

// carve returns n fresh elements off the slab, capped so an append by
// the caller cannot reach its neighbour.
func carve[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if n > cap(*slab)-len(*slab) {
		*slab = make([]T, 0, max(n, 512))
	}
	lo := len(*slab)
	*slab = (*slab)[:lo+n]
	return (*slab)[lo : lo+n : lo+n]
}

// decodeEvent decodes one payload in a single pass over a local index.
// The payload must be consumed exactly, and the first malformed field
// refuses it. An element count the rest of the payload could not hold
// is refused before it sizes anything.
func decodeEvent(p []byte, e *Event, s *slabs) error {
	var n uint64
	var v int64
	i := 0
	if e.Seq, i = uvarint(p, i); i < 0 || i >= len(p) {
		return errMalformed
	}
	if e.Type = EventType(p[i]); e.Type < EvAdmit || e.Type > EvRestoreLink {
		return errMalformed
	}
	if n, i = uvarint(p, i+1); i < 0 || n > uint64(len(p)-i) {
		return errMalformed
	}
	e.App = s.intern(p[i : i+int(n)])
	if v, i = varint(p, i+int(n)); i < 0 {
		return errMalformed
	}
	e.Priority = int(v)
	if v, i = varint(p, i); i < 0 {
		return errMalformed
	}
	e.Tile = arch.TileID(v)
	if v, i = varint(p, i); i < 0 {
		return errMalformed
	}
	e.Link = arch.LinkID(v)
	if n, i = uvarint(p, i); i < 0 || n > uint64((len(p)-i)/minTileLen) {
		return errMalformed
	}
	e.Tiles = carve(&s.tiles, int(n))
	for k := range e.Tiles {
		t := &e.Tiles[k]
		if v, i = varint(p, i); i < 0 {
			return errMalformed
		}
		t.Tile = arch.TileID(v)
		if t.MemBytes, i = varint(p, i); i < 0 || len(p)-i < 8 {
			return errMalformed
		}
		t.Util = math.Float64frombits(binary.LittleEndian.Uint64(p[i:]))
		if v, i = varint(p, i+8); i < 0 {
			return errMalformed
		}
		t.Occupants = int(v)
		if t.InBps, i = varint(p, i); i < 0 {
			return errMalformed
		}
		if t.OutBps, i = varint(p, i); i < 0 {
			return errMalformed
		}
	}
	if n, i = uvarint(p, i); i < 0 || n > uint64((len(p)-i)/minLinkLen) {
		return errMalformed
	}
	e.Links = carve(&s.links, int(n))
	for k := range e.Links {
		l := &e.Links[k]
		if v, i = varint(p, i); i < 0 {
			return errMalformed
		}
		l.Link = arch.LinkID(v)
		if l.Bps, i = varint(p, i); i < 0 {
			return errMalformed
		}
	}
	if i != len(p) {
		return errMalformed
	}
	return nil
}

// merkleRoot folds the record hashes into a binary Merkle root, in
// place: the slice is scratch afterwards. Odd levels promote the last
// node unchanged (Bitcoin-style duplication admits a forged batch from a
// duplicated leaf; promotion does not). An empty batch has the zero root.
func merkleRoot(level []Hash) Hash {
	if len(level) == 0 {
		return Hash{}
	}
	var pair [2 * sha256.Size]byte
	for n := len(level); n > 1; n = (n + 1) / 2 {
		for i := 0; i+1 < n; i += 2 {
			copy(pair[:sha256.Size], level[i][:])
			copy(pair[sha256.Size:], level[i+1][:])
			level[i/2] = sha256.Sum256(pair[:])
		}
		if n%2 == 1 {
			level[n/2] = level[n-1]
		}
	}
	return level[0]
}

// chainHash advances the chain over one batch root: sha256(prev ‖ root).
func chainHash(prev, root Hash) Hash {
	var pair [2 * sha256.Size]byte
	copy(pair[:sha256.Size], prev[:])
	copy(pair[sha256.Size:], root[:])
	return sha256.Sum256(pair[:])
}
