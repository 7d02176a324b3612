package arch

import "sync/atomic"

// This file is the copy-on-write snapshot engine. A snapshot or a mapper
// working clone does not deep-copy every tile and link — O(mesh) structs
// and allocations — it shares the immutable per-tile and per-link
// reservation structs with its origin, and either side faults in a
// private copy of a region only when something first writes to it:
// O(touched regions).
//
// The sharing protocol is region-granular:
//
//   - shared[r] marks that region r's Tile and Link structs may be
//     referenced by another platform; the first write to the region must
//     copy it first (materializeRegion). A platform shared between
//     goroutines — the manager's live platform — has one writer at a
//     time, enforced by its owner's lock; shared[] is read, set and
//     cleared only by that writer, so it needs no synchronization of its
//     own.
//   - frozen marks a platform immutable: the base of a snapshot that may
//     be shared by many concurrent readers. Writes to a frozen platform
//     panic; mutators derive a private copy-on-write child first
//     (Snapshot.Writable, CloneCoW).
//
// Writers reach reservation state through WTile/WLink (single-resource
// writes) or MaterializeRegions (bulk, when the footprint is known, as in
// Plan.Commit). Readers keep using Tile/Link/Tiles/Links unchanged: a
// shared struct is immutable until the owner materializes, and
// materializing swaps the pointer in the writer's own slice without
// touching the structs other platforms still reference.

// ensureCoWState allocates the copy-on-write bookkeeping for the current
// partition. It is called from NewMesh and PartitionRegions so every
// platform is CoW-ready before it can be shared between goroutines
// (lazily allocating later would race with concurrent readers of the
// shared-flag slice).
func (p *Platform) ensureCoWState() {
	n := p.RegionCount()
	p.shared = make([]bool, n)
	p.tilesByRegion = make([][]TileID, n)
	p.linksByRegion = make([][]LinkID, n)
	for _, t := range p.Tiles {
		r := p.RegionOfRouter(t.Router)
		p.tilesByRegion[r] = append(p.tilesByRegion[r], t.ID)
	}
	for _, l := range p.Links {
		r := p.RegionOfRouter(l.From)
		p.linksByRegion[r] = append(p.linksByRegion[r], l.ID)
	}
}

// Frozen reports whether the platform is an immutable snapshot base.
// Frozen platforms may be read by many goroutines concurrently; writing
// to one panics. Derive a writable view with Snapshot.Writable or
// CloneCoW.
func (p *Platform) Frozen() bool { return p.frozen }

// CoWClone reports whether the platform is itself a copy-on-write child
// (a mapper working clone or a writable snapshot view). Such platforms
// are goroutine-private by construction, so deriving further
// copy-on-write clones from them is safe and cheap — the mapper's
// working-clone selection relies on this.
func (p *Platform) CoWClone() bool { return p.cowChild }

// SetCoWFaultMeter installs a counter that materializeRegion bumps once
// per faulted region, on this platform and every snapshot or
// copy-on-write clone subsequently derived from it. The online manager
// uses it to expose CoW fault totals in its statistics; pass nil to
// disable. Install the meter before the platform is shared.
func (p *Platform) SetCoWFaultMeter(m *atomic.Uint64) { p.cowFaults = m }

// materializeRegion replaces region r's tile and link structs with
// private copies, detaching them from every platform that shares them.
// The caller must hold whatever serializes writes to p (its owner's lock
// when the platform is shared; nothing when it is goroutine-private).
func (p *Platform) materializeRegion(r RegionID) {
	if p.frozen {
		panic("arch: write to frozen snapshot platform; derive a Writable snapshot or CloneCoW first")
	}
	for _, tid := range p.tilesByRegion[r] {
		c := *p.Tiles[tid]
		p.Tiles[tid] = &c
	}
	for _, lid := range p.linksByRegion[r] {
		c := *p.Links[lid]
		p.Links[lid] = &c
	}
	p.shared[r] = false
	if p.cowFaults != nil {
		p.cowFaults.Add(1)
	}
}

// MaterializeRegions faults in every still-shared region of the given
// footprint, so the caller may mutate reservation state inside those
// regions directly. The caller must be p's one writer (see
// materializeRegion); on an unshared platform (a plain deep clone) this
// is a cheap no-op per region.
func (p *Platform) MaterializeRegions(regions []RegionID) {
	for _, r := range regions {
		if int(r) < len(p.shared) && p.shared[r] {
			p.materializeRegion(r)
		}
	}
}

// WTile returns the tile for writing: if the tile's region is shared
// with another platform it is faulted in first, so the returned struct
// is private to p. Use it instead of Tile whenever reservation fields
// will be mutated, and do the subsequent reads of that tile through the
// returned pointer.
func (p *Platform) WTile(id TileID) *Tile {
	if r := p.RegionOfTile(id); int(r) < len(p.shared) && p.shared[r] {
		p.materializeRegion(r)
	}
	return p.Tile(id)
}

// WLink is WTile for links: it faults in the link's region and returns a
// struct private to p.
func (p *Platform) WLink(id LinkID) *Link {
	if r := p.RegionOfLink(id); int(r) < len(p.shared) && p.shared[r] {
		p.materializeRegion(r)
	}
	return p.Link(id)
}

// CloneCoW returns a copy-on-write clone: a platform that shares every
// tile and link struct with p and faults in private copies as it is
// written. Cloning a frozen platform never mutates it, so any number of
// goroutines may CloneCoW the same snapshot base concurrently. Cloning a
// live platform additionally marks every region of p itself shared — p's
// next write per region copies too — and is therefore only safe while p
// is not being written concurrently (goroutine-private platforms).
func (p *Platform) CloneCoW() *Platform {
	q := p.shareAll()
	q.cowChild = true
	return q
}

// shareAll returns a platform referencing every tile and link struct of
// p, with every region marked shared on the new platform and, unless p
// is frozen, on p itself.
func (p *Platform) shareAll() *Platform {
	if !p.frozen && len(p.shared) != p.RegionCount() {
		// A deep Clone: it carries the region index (shallowMeta) but no
		// shared flags, having shared nothing so far. It is by
		// construction not yet shared between goroutines.
		p.shared = make([]bool, p.RegionCount())
	}
	q := p.shallowMeta()
	q.Tiles = make([]*Tile, len(p.Tiles))
	copy(q.Tiles, p.Tiles)
	q.Links = make([]*Link, len(p.Links))
	copy(q.Links, p.Links)
	q.version.Store(p.version.Load())
	q.shared = make([]bool, p.RegionCount())
	for i := range q.shared {
		q.shared[i] = true
	}
	if !p.frozen {
		for i := range p.shared {
			p.shared[i] = true
		}
	}
	return q
}

// shallowMeta copies the platform's immutable description — topology,
// lookup tables, partition geometry and the region resource index — into
// a new Platform with no tiles, links or reservation state yet.
func (p *Platform) shallowMeta() *Platform {
	return &Platform{
		Name:          p.Name,
		Width:         p.Width,
		Height:        p.Height,
		NoCClockHz:    p.NoCClockHz,
		Routers:       p.Routers, // immutable after construction
		out:           p.out,
		in:            p.in,
		byName:        p.byName,
		atRtr:         p.atRtr,
		ofType:        p.ofType,
		tileRouters:   p.tileRouters,
		tileClocks:    p.tileClocks,
		linkFroms:     p.linkFroms,
		grid:          p.grid, // immutable once partitioned
		tilesByRegion: p.tilesByRegion,
		linksByRegion: p.linksByRegion,
		cowFaults:     p.cowFaults,
	}
}

// SnapshotCoW takes a copy-on-write snapshot of the platform: a frozen
// CloneCoW, sharing every tile and link struct with p. The capture is
// two slice copies; when p is shared between goroutines the caller holds
// the lock that serializes p's writes for their duration, which makes
// the snapshot a point-in-time view of the whole mesh — no plan is ever
// captured half-committed.
//
// After the capture, p's next write to each region faults in a private
// copy (see MaterializeRegions), leaving the snapshot's structs
// untouched — the snapshot stays a stable point-in-time view for as long
// as it is referenced.
func (p *Platform) SnapshotCoW() *Snapshot {
	q := p.shareAll()
	q.frozen = true
	return &Snapshot{Plat: q, Version: q.Version()}
}

// Writable returns a snapshot whose platform the caller may mutate: the
// snapshot itself when its platform is already private, or a snapshot
// wrapping a copy-on-write clone of the frozen base otherwise. The
// preemption planner uses it to run hypothetical evictions on a frozen
// capture.
func (s *Snapshot) Writable() *Snapshot {
	if !s.Plat.Frozen() {
		return s
	}
	return &Snapshot{Plat: s.Plat.CloneCoW(), Version: s.Version}
}
