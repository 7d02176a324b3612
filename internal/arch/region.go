package arch

import (
	"fmt"
	"sort"
)

// This file partitions the mesh into contiguous rectangular regions. A
// region is pure geometry: the grain of conflict attribution
// (core.ValidationError.Region, which repair, template choice and victim
// selection read) and of the synthetic workloads' endpoint layout. It is
// neither a locking nor a copying unit: whoever shares a platform between
// goroutines serializes its writes itself, as the manager does with one
// mutex, and a copy is the whole mesh (Clone). An unpartitioned platform
// behaves as one region covering the whole mesh.

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
// happen before the platform is shared or cloned: copies share the grid.
// Returns the region count.
func (p *Platform) PartitionRegions(size int) int {
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
// its network interface attaches to. It reads only the tile's immutable
// description, so it is safe without the lock that guards reservations.
func (p *Platform) RegionOfTile(id TileID) RegionID {
	return p.RegionOfRouter(p.Tile(id).Router)
}

// RegionOfLink returns the region owning a link. A link belongs to the
// region of its source router — the canonical assignment that gives
// boundary-crossing links exactly one owner, so a commit plan's region
// footprint is well defined. Like RegionOfTile it reads only the
// immutable description.
func (p *Platform) RegionOfLink(id LinkID) RegionID {
	return p.RegionOfRouter(p.Link(id).From)
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
