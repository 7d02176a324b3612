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
// deltas, sorted by resource ID. Together with the application name they
// are sufficient to reconstruct the plan with NewDeltaPlan. They were
// exported once, when the plan was built, and every call returns the same
// slices: read-only.
func (p *Plan) Deltas() ([]TileReservation, []LinkReservation) { return p.tiles, p.links }

func byTile(a, b TileReservation) int { return cmp.Compare(a.Tile, b.Tile) }
func byLink(a, b LinkReservation) int { return cmp.Compare(a.Link, b.Link) }

// newPlan wraps an aggregated commit plan with its exported deltas.
func newPlan(pl *commitPlan) *Plan {
	tiles := make([]TileReservation, 0, len(pl.tiles))
	for tid, d := range pl.tiles {
		tiles = append(tiles, TileReservation{
			Tile:      tid,
			MemBytes:  d.mem,
			Util:      d.util,
			Occupants: d.occupants,
			InBps:     d.inBps,
			OutBps:    d.outBps,
		})
	}
	slices.SortFunc(tiles, byTile)
	links := make([]LinkReservation, 0, len(pl.links))
	for lid, bps := range pl.links {
		links = append(links, LinkReservation{Link: lid, Bps: bps})
	}
	slices.SortFunc(links, byLink)
	return &Plan{pl: pl, tiles: tiles, links: links}
}

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
// copied, so the caller must leave them alone afterwards.
func NewDeltaPlan(appName string, tiles []TileReservation, links []LinkReservation) *Plan {
	pl := &commitPlan{
		appName: appName,
		tiles:   make(map[arch.TileID]*tileDelta, len(tiles)),
		links:   make(map[arch.LinkID]int64, len(links)),
		arena:   make([]tileDelta, 0, len(tiles)),
	}
	for _, tr := range tiles {
		d := pl.tile(tr.Tile)
		d.mem += tr.MemBytes
		d.util += tr.Util
		d.occupants += tr.Occupants
		d.inBps += tr.InBps
		d.outBps += tr.OutBps
	}
	for _, lr := range links {
		pl.links[lr.Link] += lr.Bps
	}
	if len(pl.tiles) == len(tiles) && len(pl.links) == len(links) &&
		slices.IsSortedFunc(tiles, byTile) && slices.IsSortedFunc(links, byLink) {
		return &Plan{pl: pl, tiles: tiles, links: links}
	}
	return newPlan(pl)
}
