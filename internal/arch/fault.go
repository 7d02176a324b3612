package arch

import "fmt"

// This file is the runtime fault model. A production deployment of the
// paper's run-time spatial mapper must survive tiles and links dying under
// load: marking a resource failed zeroes its free capacity (so every
// mapping, routing and validation path steers around it) while leaving its
// reservation ledger intact (so the residents being evacuated can still
// release exactly what they reserved). Failure is a reservation change like
// any other — in-flight optimistic admissions whose snapshot predates the
// fault re-validate against the failed resource and retry, exactly as they
// would against a competing commit.
//
// All four mutators require the same serialization as any reservation
// write: the owner's platform lock when the platform is shared between
// goroutines. Snapshots taken earlier are separate copies and keep the
// pre-fault state.

// FailTile marks a tile failed and records the change in the platform's
// version. Idempotent: failing a failed tile reports false and bumps
// nothing. The caller must hold the platform's lock when the platform
// is shared.
func (p *Platform) FailTile(id TileID) bool {
	t := p.Tile(id)
	if t.Failed {
		return false
	}
	t.Failed = true
	p.BumpVersion()
	return true
}

// FailLink marks a link failed, with the same versioning, idempotence and
// locking contract as FailTile.
func (p *Platform) FailLink(id LinkID) bool {
	l := p.Link(id)
	if l.Failed {
		return false
	}
	l.Failed = true
	p.BumpVersion()
	return true
}

// RestoreTile clears a tile's failed flag (a repaired or hot-swapped
// tile rejoining the platform), bumping the version as FailTile does.
// Idempotent; same locking contract.
func (p *Platform) RestoreTile(id TileID) bool {
	t := p.Tile(id)
	if !t.Failed {
		return false
	}
	t.Failed = false
	p.BumpVersion()
	return true
}

// RestoreLink clears a link's failed flag; see RestoreTile.
func (p *Platform) RestoreLink(id LinkID) bool {
	l := p.Link(id)
	if !l.Failed {
		return false
	}
	l.Failed = false
	p.BumpVersion()
	return true
}

// PlatformsIdentical compares the complete reservation state of two
// platforms struct by struct — every tile field (description by value,
// reservations, occupancy, failure flag) and every link field must match
// exactly, bit for bit for the float64 utilisation. Version counters are
// deliberately not compared: two histories that reach the same resource
// state may disagree on how many aborted commits bumped the counters along
// the way. The crash-replay equivalence suite is built on this: a journal
// replay must land on a platform for which PlatformsIdentical returns nil
// against the live one.
func PlatformsIdentical(a, b *Platform) error {
	if len(a.Tiles) != len(b.Tiles) || len(a.Links) != len(b.Links) {
		return fmt.Errorf("shape differs: %d/%d tiles, %d/%d links",
			len(a.Tiles), len(b.Tiles), len(a.Links), len(b.Links))
	}
	for i := range a.Tiles {
		// A replayed platform has its own descriptions: compare them by
		// value, then the states with the pointers out of the way.
		x, y := *a.Tiles[i], *b.Tiles[i]
		xi, yi := *x.TileInfo, *y.TileInfo
		x.TileInfo, y.TileInfo = nil, nil
		if xi != yi || x != y {
			return fmt.Errorf("tile %d differs: %+v %+v vs %+v %+v", i, xi, x, yi, y)
		}
	}
	for i := range a.Links {
		x, y := *a.Links[i], *b.Links[i]
		xi, yi := *x.LinkInfo, *y.LinkInfo
		x.LinkInfo, y.LinkInfo = nil, nil
		if xi != yi || x != y {
			return fmt.Errorf("link %d differs: %+v %+v vs %+v %+v", i, xi, x, yi, y)
		}
	}
	return nil
}
