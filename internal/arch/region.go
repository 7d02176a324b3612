package arch

import (
	"fmt"
	"sort"
	"sync"
)

// This file shards the platform's reservation state by NoC region. The
// online manager's commit phase used to serialize every admission behind
// one platform-wide lock; partitioning the mesh into contiguous
// rectangular regions gives each region its own lock (RegionLocks), so a
// commit only needs to lock and re-validate the regions its reservation
// plan touches. Admissions landing in disjoint regions then commit fully in
// parallel. An unpartitioned platform behaves as one region covering the
// whole mesh — the degenerate case, semantically identical to the
// pre-sharding code.

// RegionID indexes a region within its Platform's partition.
type RegionID int

// Region is one contiguous rectangular block of the mesh: all routers with
// X0 ≤ x ≤ X1 and Y0 ≤ y ≤ Y1, the tiles attached to them, and the links
// whose source router lies inside the rectangle (the canonical link
// assignment: every link belongs to exactly one region, the region of its
// From router).
type Region struct {
	ID RegionID
	// X0, Y0, X1, Y1 are the inclusive router-coordinate bounds.
	X0, Y0, X1, Y1 int
}

// Contains reports whether the router coordinate lies inside the region.
func (r Region) Contains(pt Point) bool {
	return pt.X >= r.X0 && pt.X <= r.X1 && pt.Y >= r.Y0 && pt.Y <= r.Y1
}

// String renders the region's ID and inclusive coordinate bounds.
func (r Region) String() string {
	return fmt.Sprintf("region %d [(%d,%d)-(%d,%d)]", r.ID, r.X0, r.Y0, r.X1, r.Y1)
}

// regionGrid is the partition geometry: square blocks of `size` routers,
// cols×rows of them, the right and bottom blocks clipped by the mesh edge.
// It is immutable once built, so Clone shares it.
type regionGrid struct {
	size int
	cols int
	rows int
}

func (g *regionGrid) count() int { return g.cols * g.rows }

func (g *regionGrid) of(pt Point) RegionID {
	return RegionID((pt.Y/g.size)*g.cols + pt.X/g.size)
}

// PartitionRegions splits the mesh into square regions of the given side
// length (in routers). size ≤ 0, or a size that covers the whole mesh in
// one block, yields the single-region degenerate case. Partitioning must
// happen before the platform is shared: callers like manager.New size
// their lock set from RegionCount once, and repartitioning a live platform
// would break the region↔lock correspondence. Returns the region count.
func (p *Platform) PartitionRegions(size int) int {
	defer p.ensureCoWState()
	if size <= 0 {
		p.grid = nil
		return 1
	}
	cols := (p.Width + size - 1) / size
	rows := (p.Height + size - 1) / size
	if cols*rows == 1 {
		p.grid = nil
		return 1
	}
	p.grid = &regionGrid{size: size, cols: cols, rows: rows}
	return cols * rows
}

// RegionCount returns the number of regions of the current partition; an
// unpartitioned platform counts as one region covering the whole mesh.
func (p *Platform) RegionCount() int {
	if p.grid == nil {
		return 1
	}
	return p.grid.count()
}

// RegionOfPoint returns the region owning the router at the coordinate.
func (p *Platform) RegionOfPoint(pt Point) RegionID {
	if p.grid == nil {
		return 0
	}
	return p.grid.of(pt)
}

// RegionOfRouter returns the region owning a router.
func (p *Platform) RegionOfRouter(r RouterID) RegionID {
	return p.RegionOfPoint(p.Routers[r].Pos)
}

// RegionOfTile returns the region owning a tile: the region of the router
// its network interface attaches to. It reads only the platform's
// immutable static description, so it is safe lock-free even while
// copy-on-write faults swap reservation structs in other goroutines.
func (p *Platform) RegionOfTile(id TileID) RegionID {
	if id < 0 || int(id) >= len(p.tileRouters) {
		panic(fmt.Sprintf("arch: tile id %d out of range", id))
	}
	return p.RegionOfRouter(p.tileRouters[id])
}

// RegionOfLink returns the region owning a link. A link belongs to the
// region of its source router — the canonical assignment that gives
// boundary-crossing links exactly one owner, so a commit plan's region
// footprint is well defined. Like RegionOfTile it reads only immutable
// static data and is safe lock-free.
func (p *Platform) RegionOfLink(id LinkID) RegionID {
	if id < 0 || int(id) >= len(p.linkFroms) {
		panic(fmt.Sprintf("arch: link id %d out of range", id))
	}
	return p.RegionOfRouter(p.linkFroms[id])
}

// Region returns the geometry of one region of the current partition.
func (p *Platform) Region(id RegionID) Region {
	if p.grid == nil {
		if id != 0 {
			panic(fmt.Sprintf("arch: region id %d on unpartitioned platform", id))
		}
		return Region{ID: 0, X0: 0, Y0: 0, X1: p.Width - 1, Y1: p.Height - 1}
	}
	if id < 0 || int(id) >= p.grid.count() {
		panic(fmt.Sprintf("arch: region id %d out of range (have %d)", id, p.grid.count()))
	}
	g := p.grid
	cx, cy := int(id)%g.cols, int(id)/g.cols
	r := Region{ID: id, X0: cx * g.size, Y0: cy * g.size,
		X1: cx*g.size + g.size - 1, Y1: cy*g.size + g.size - 1}
	if r.X1 >= p.Width {
		r.X1 = p.Width - 1
	}
	if r.Y1 >= p.Height {
		r.Y1 = p.Height - 1
	}
	return r
}

// Regions lists the current partition in region-ID order.
func (p *Platform) Regions() []Region {
	out := make([]Region, p.RegionCount())
	for i := range out {
		out[i] = p.Region(RegionID(i))
	}
	return out
}

// RegionSet accumulates distinct regions while scanning resources and
// hands them back in the canonical footprint representation: ascending,
// no duplicates. Plan footprints, residual-diff attribution and conflict
// reports all build their region lists through it.
type RegionSet map[RegionID]struct{}

// Add records one region.
func (s RegionSet) Add(r RegionID) { s[r] = struct{}{} }

// Sorted returns the accumulated regions ascending.
func (s RegionSet) Sorted() []RegionID {
	out := make([]RegionID, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RegionLocks serializes reservation mutations per region: one mutex per
// region of a platform's partition. Lock acquires a footprint's locks in
// ascending region order — the canonical order every holder uses, which is
// what makes overlapping footprints deadlock-free — and LockAll takes the
// whole set for operations that need a consistent view of the entire
// platform (snapshots, residual reads, invariant checks).
type RegionLocks struct {
	mus []sync.Mutex
}

// NewRegionLocks returns a lock set for a platform partitioned into n
// regions (n < 1 is treated as 1).
func NewRegionLocks(n int) *RegionLocks {
	if n < 1 {
		n = 1
	}
	return &RegionLocks{mus: make([]sync.Mutex, n)}
}

// Count returns the number of region locks.
func (l *RegionLocks) Count() int { return len(l.mus) }

// Lock acquires the locks of the given regions in ascending canonical
// order. The footprint may be unsorted and may contain duplicates; it is
// normalised first. An empty footprint locks nothing.
func (l *RegionLocks) Lock(regions []RegionID) {
	for _, r := range normalizeRegions(regions) {
		l.mus[r].Lock()
	}
}

// Unlock releases the locks of the given regions (any order accepted; the
// set is normalised like Lock's).
func (l *RegionLocks) Unlock(regions []RegionID) {
	norm := normalizeRegions(regions)
	for i := len(norm) - 1; i >= 0; i-- {
		l.mus[norm[i]].Unlock()
	}
}

// LockRegion acquires one region's lock. The copy-on-write snapshot
// capture uses it to visit regions one at a time instead of holding the
// whole set.
func (l *RegionLocks) LockRegion(r RegionID) { l.mus[r].Lock() }

// UnlockRegion releases one region's lock.
func (l *RegionLocks) UnlockRegion(r RegionID) { l.mus[r].Unlock() }

// LockAll acquires every region lock in ascending order.
func (l *RegionLocks) LockAll() {
	for i := range l.mus {
		l.mus[i].Lock()
	}
}

// UnlockAll releases every region lock.
func (l *RegionLocks) UnlockAll() {
	for i := len(l.mus) - 1; i >= 0; i-- {
		l.mus[i].Unlock()
	}
}

// normalizeRegions returns the footprint sorted ascending with duplicates
// removed, leaving the caller's slice untouched. Already-canonical
// footprints (the common case: Plan.Regions is sorted unique) are returned
// as-is without allocating.
func normalizeRegions(regions []RegionID) []RegionID {
	canonical := true
	for i := 1; i < len(regions); i++ {
		if regions[i] <= regions[i-1] {
			canonical = false
			break
		}
	}
	if canonical {
		return regions
	}
	norm := make([]RegionID, len(regions))
	copy(norm, regions)
	sort.Slice(norm, func(i, j int) bool { return norm[i] < norm[j] })
	out := norm[:0]
	for i, r := range norm {
		if i == 0 || r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}
