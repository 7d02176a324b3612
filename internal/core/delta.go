package core

import (
	"cmp"
	"slices"

	"rtsm/internal/arch"
)

// This file exports a Plan's aggregated reservation deltas and rebuilds a
// Plan from them. The durable admission journal records what each commit
// changed — per-tile and per-link deltas, not the mapping that produced
// them — so crash recovery can replay the exact reservation arithmetic
// without the original workload objects. Util is the one float64 in the
// ledger: replay applies the same aggregated per-plan value in a single
// addition, which together with journal order matching commit order makes
// the replayed platform bit-for-bit identical to the live one.

// TileReservation is the aggregated delta one plan applies to one tile.
type TileReservation struct {
	Tile      arch.TileID
	MemBytes  int64
	Util      float64
	Occupants int
	InBps     int64
	OutBps    int64
}

// LinkReservation is the aggregated delta one plan applies to one link.
type LinkReservation struct {
	Link arch.LinkID
	Bps  int64
}

// Deltas returns the plan's aggregated per-tile and per-link reservation
// deltas, sorted by resource ID with each resource once. They are the plan
// itself — NewDeltaPlan rebuilds it from them — and every call returns the
// same slices: read-only.
func (p *Plan) Deltas() ([]TileReservation, []LinkReservation) { return p.tiles, p.links }

func byTile(a, b TileReservation) int { return cmp.Compare(a.Tile, b.Tile) }
func byLink(a, b LinkReservation) int { return cmp.Compare(a.Link, b.Link) }

// ApplyDeltas adds (sign +1) or subtracts (sign -1) exported deltas on
// the platform exactly as Commit or Release of the plan they came from
// would: every field of every named resource receives the same single
// addition — the one float among them, ReservedUtil, included — and the
// version is bumped once. It is
// journal replay's commit: no plan is built to apply an event. Each
// resource must appear once, as Deltas exports them, and the caller must
// be the platform's one writer.
func ApplyDeltas(plat *arch.Platform, tiles []TileReservation, links []LinkReservation, sign int64) {
	for i := range tiles {
		d := &tiles[i]
		t := plat.Tile(d.Tile)
		t.ReservedMem += sign * d.MemBytes
		t.ReservedUtil += float64(sign) * d.Util
		t.Occupants += int32(sign) * int32(d.Occupants)
		t.ReservedInBps += sign * d.InBps
		t.ReservedOutBps += sign * d.OutBps
	}
	for _, l := range links {
		plat.Link(l.Link).ReservedBps += sign * l.Bps
	}
	plat.BumpVersion()
}

// NewDeltaPlan rebuilds a Plan from journaled reservation deltas. The
// result commits and releases exactly like the original plan — same
// aggregated values — but carries no mapping, so
// it cannot be repaired or relocated; it exists for releasing residents
// whose Result did not survive a crash. Deltas shaped as Deltas exports
// them — sorted, each resource once: what a journal holds — are kept, not
// copied, so the caller must leave them alone afterwards. Any other input
// is copied, stable-sorted and folded, each resource's values added in
// input order.
func NewDeltaPlan(tiles []TileReservation, links []LinkReservation) *Plan {
	if !strictlySorted(tiles, byTile) {
		tiles = slices.Clone(tiles)
		slices.SortStableFunc(tiles, byTile)
		out := tiles[:0]
		for _, d := range tiles {
			n := len(out)
			if n == 0 || out[n-1].Tile != d.Tile {
				out = append(out, d)
				continue
			}
			o := &out[n-1]
			o.MemBytes += d.MemBytes
			o.Util += d.Util
			o.Occupants += d.Occupants
			o.InBps += d.InBps
			o.OutBps += d.OutBps
		}
		tiles = out
	}
	if !strictlySorted(links, byLink) {
		links = slices.Clone(links)
		slices.SortStableFunc(links, byLink)
		links = foldLinks(links)
	}
	return &Plan{tiles: tiles, links: links}
}

// strictlySorted reports whether s is sorted by compare with no two
// elements equal.
func strictlySorted[E any](s []E, compare func(a, b E) int) bool {
	for i := 1; i < len(s); i++ {
		if compare(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}
