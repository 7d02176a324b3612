package arch

// This file implements the snapshot/residual view the concurrent admission
// pipeline builds on. An online resource manager wants to run the (slow)
// spatial mapping of an arriving application without holding the platform
// lock; it therefore maps against a Snapshot — a point-in-time view of
// the platform including all reservations — and only re-acquires the lock
// for a short commit phase that re-validates the mapping against the live
// platform (optimistic concurrency). The Version counter lets the commit
// phase detect cheaply whether any admission or departure landed since the
// snapshot was taken.
//
// Platform itself remains lock-free: callers that share a platform between
// goroutines (package manager) serialize Snapshot, Residual and all
// reservation mutations behind their own lock. A Snapshot, once taken, is
// owned by whoever took it.

// Snapshot is a point-in-time view of a platform's full reservation state.
type Snapshot struct {
	// Plat is a private copy the holder may freely mutate: a Clone from
	// Platform.Snapshot, or a recycled platform refilled by CopyInto, as
	// the manager's admissions do with a pooled Snapshot every round.
	Plat *Platform
	// Version is the platform's reservation version at the time the
	// snapshot was taken.
	Version uint64
}

// Snapshot returns a copy of the platform tagged with its current
// reservation version. The caller must hold whatever serializes
// mutations of the platform.
func (p *Platform) Snapshot() *Snapshot {
	return &Snapshot{Plat: p.Clone(), Version: p.version.Load()}
}

// Version returns the platform's reservation version: a counter bumped on
// every committed reservation change (a plan's Commit or Release) and
// every fault and restore.
// The counter is atomic, so reading it needs no lock; the reservation
// state it summarises still does.
func (p *Platform) Version() uint64 { return p.version.Load() }

// BumpVersion records that the platform's reservation state changed and
// returns the new version. Package core calls it when committing or
// releasing a mapping; callers mutating reservations directly should call
// it themselves if they rely on version-based conflict detection.
func (p *Platform) BumpVersion() uint64 {
	return p.version.Add(1)
}

// TileResidual is the uncommitted capacity of one tile.
type TileResidual struct {
	Tile         TileID
	FreeMemBytes int64
	// FreeUtil is the fraction of the processing element's time still
	// unreserved, in [0, 1].
	FreeUtil   float64
	FreeInBps  int64
	FreeOutBps int64
	// FreeSlots is how many more occupants the tile accepts; -1 means
	// unlimited.
	FreeSlots int
}

// LinkResidual is the unreserved capacity of one NoC link.
type LinkResidual struct {
	Link    LinkID
	FreeBps int64
}

// Residual summarises what is left of a platform: the free capacity of
// every tile and link. It is a plain value — comparing the residual before
// and after a rejected admission, or before load and after full churn, is
// how the tests pin down that reservations never leak.
type Residual struct {
	Version uint64
	Tiles   []TileResidual
	Links   []LinkResidual
}

// Residual computes the current residual view. Like Snapshot, it must be
// called with the platform lock held when the platform is shared.
func (p *Platform) Residual() Residual {
	r := Residual{
		Version: p.version.Load(),
		Tiles:   make([]TileResidual, len(p.Tiles)),
		Links:   make([]LinkResidual, len(p.Links)),
	}
	for i, t := range p.Tiles {
		slots := -1
		if t.MaxOccupants > 0 {
			slots = t.MaxOccupants - int(t.Occupants)
		}
		if t.Failed {
			// A failed tile has no usable capacity left, whatever its
			// ledger says.
			r.Tiles[i] = TileResidual{Tile: t.ID}
			continue
		}
		r.Tiles[i] = TileResidual{
			Tile:         t.ID,
			FreeMemBytes: t.FreeMem(),
			FreeUtil:     1 - t.ReservedUtil,
			FreeInBps:    t.NICapBps - t.ReservedInBps,
			FreeOutBps:   t.NICapBps - t.ReservedOutBps,
			FreeSlots:    slots,
		}
	}
	for i, l := range p.Links {
		r.Links[i] = LinkResidual{Link: l.ID, FreeBps: l.FreeBps()}
	}
	return r
}

// Equal reports whether two residual views describe the same free
// capacity. Versions are ignored: two states reached by different
// admission histories may still be resource-identical.
func (r Residual) Equal(o Residual) bool {
	if len(r.Tiles) != len(o.Tiles) || len(r.Links) != len(o.Links) {
		return false
	}
	for i := range r.Tiles {
		a, b := r.Tiles[i], o.Tiles[i]
		if a.Tile != b.Tile || a.FreeMemBytes != b.FreeMemBytes ||
			a.FreeInBps != b.FreeInBps || a.FreeOutBps != b.FreeOutBps ||
			a.FreeSlots != b.FreeSlots || !utilEqual(a.FreeUtil, b.FreeUtil) {
			return false
		}
	}
	for i := range r.Links {
		if r.Links[i] != o.Links[i] {
			return false
		}
	}
	return true
}

// TileDelta is the change in one tile's free capacity between two residual
// views: positive fields mean capacity appeared (an application left),
// negative fields mean a competing reservation consumed it.
type TileDelta struct {
	Tile         TileID
	FreeMemBytes int64
	FreeUtil     float64
	FreeInBps    int64
	FreeOutBps   int64
	// FreeSlots is the occupancy-slot delta; 0 when either side is
	// unlimited.
	FreeSlots int
}

// LinkDelta is the change in one link's free bandwidth between two
// residual views.
type LinkDelta struct {
	Link    LinkID
	FreeBps int64
}

// ResidualDiff is the per-resource difference between two residual views:
// only tiles and links whose free capacity changed appear. The churn
// harness reports it when a drained platform is not back at its pristine
// residual.
type ResidualDiff struct {
	Tiles []TileDelta
	Links []LinkDelta
}

// Diff computes o − r per resource: what changed between this residual
// view (the older) and o (the fresher). Tiles and links are matched by
// position, as produced by Platform.Residual on the same platform; views
// of different platforms are not comparable and yield a diff marking
// every resource as changed.
func (r Residual) Diff(o Residual) ResidualDiff {
	var d ResidualDiff
	n := len(r.Tiles)
	if len(o.Tiles) < n {
		n = len(o.Tiles)
	}
	for i := 0; i < n; i++ {
		a, b := r.Tiles[i], o.Tiles[i]
		td := TileDelta{
			Tile:         a.Tile,
			FreeMemBytes: b.FreeMemBytes - a.FreeMemBytes,
			FreeUtil:     b.FreeUtil - a.FreeUtil,
			FreeInBps:    b.FreeInBps - a.FreeInBps,
			FreeOutBps:   b.FreeOutBps - a.FreeOutBps,
		}
		if a.FreeSlots >= 0 && b.FreeSlots >= 0 {
			td.FreeSlots = b.FreeSlots - a.FreeSlots
		}
		if a.Tile != b.Tile || td.FreeMemBytes != 0 || !utilEqual(a.FreeUtil, b.FreeUtil) ||
			td.FreeInBps != 0 || td.FreeOutBps != 0 || td.FreeSlots != 0 {
			d.Tiles = append(d.Tiles, td)
		}
	}
	for i := n; i < len(r.Tiles); i++ {
		d.Tiles = append(d.Tiles, TileDelta{Tile: r.Tiles[i].Tile, FreeMemBytes: -r.Tiles[i].FreeMemBytes})
	}
	for i := n; i < len(o.Tiles); i++ {
		d.Tiles = append(d.Tiles, TileDelta{Tile: o.Tiles[i].Tile, FreeMemBytes: o.Tiles[i].FreeMemBytes})
	}
	nl := len(r.Links)
	if len(o.Links) < nl {
		nl = len(o.Links)
	}
	for i := 0; i < nl; i++ {
		a, b := r.Links[i], o.Links[i]
		if a.Link != b.Link || a.FreeBps != b.FreeBps {
			d.Links = append(d.Links, LinkDelta{Link: a.Link, FreeBps: b.FreeBps - a.FreeBps})
		}
	}
	for i := nl; i < len(r.Links); i++ {
		d.Links = append(d.Links, LinkDelta{Link: r.Links[i].Link, FreeBps: -r.Links[i].FreeBps})
	}
	for i := nl; i < len(o.Links); i++ {
		d.Links = append(d.Links, LinkDelta{Link: o.Links[i].Link, FreeBps: o.Links[i].FreeBps})
	}
	return d
}

// utilEqual compares utilisation fractions up to the accumulation noise of
// repeated float additions and subtractions.
const utilCmpEps = 1e-9

func utilEqual(a, b float64) bool {
	d := a - b
	return d < utilCmpEps && d > -utilCmpEps
}
