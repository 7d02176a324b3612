package journal

import (
	"encoding/binary"
	"math"

	"rtsm/internal/arch"
	"rtsm/internal/core"
)

// The payload decoder decodeEvent replaced, kept as the oracle of
// FuzzDecodeEvent: a reader over the shrinking payload slice whose
// first failure sticks, every later read returning zero.

type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// count reads an element count and rejects one the rest of the payload
// could not hold, so a damaged count never sizes an allocation.
func (r *reader) count(minLen int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minLen) {
		r.bad, r.b = true, nil
		return 0
	}
	return int(n)
}

// decodeEventRef decodes one payload, which must be consumed exactly.
func decodeEventRef(p []byte, e *Event, s *slabs) error {
	r := reader{b: p}
	e.Seq = r.uvarint()
	if t := r.bytes(1); t != nil {
		e.Type = EventType(t[0])
	}
	e.App = s.intern(r.bytes(r.uvarint()))
	e.Priority = int(r.varint())
	e.Tile = arch.TileID(r.varint())
	e.Link = arch.LinkID(r.varint())
	e.Tiles = carve(&s.tiles, r.count(minTileLen))
	for i := range e.Tiles {
		t := &e.Tiles[i]
		t.Tile = arch.TileID(r.varint())
		t.MemBytes = r.varint()
		if u := r.bytes(8); u != nil {
			t.Util = math.Float64frombits(binary.LittleEndian.Uint64(u))
		}
		t.Occupants = int(r.varint())
		t.InBps = r.varint()
		t.OutBps = r.varint()
	}
	e.Links = carve(&s.links, r.count(minLinkLen))
	for i := range e.Links {
		e.Links[i] = core.LinkReservation{Link: arch.LinkID(r.varint()), Bps: r.varint()}
	}
	if r.bad || len(r.b) != 0 || e.Type < EvAdmit || e.Type > EvRestoreLink {
		return errMalformed
	}
	return nil
}

// DecodeEvent and DecodeEventRef run the decoder and its oracle on one
// payload, each with slabs of its own, for the external fuzz target.
func DecodeEvent(p []byte) (Event, error)    { return decodeWith(decodeEvent, p) }
func DecodeEventRef(p []byte) (Event, error) { return decodeWith(decodeEventRef, p) }

func decodeWith(decode func([]byte, *Event, *slabs) error, p []byte) (Event, error) {
	var e Event
	err := decode(p, &e, &slabs{names: make(map[string]string)})
	return e, err
}
