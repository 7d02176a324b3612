package arch

import "fmt"

// This file partitions the mesh into contiguous rectangular regions. A
// region is pure geometry with two readers: the synthetic workloads lay
// one stream-endpoint pair out per region, and core.Config.RegionBias
// steers steps 1 and 2 toward the regions an application already
// occupies. It is neither a locking, a copying nor a conflict-attribution
// unit — conflicts name the tile or link itself (core.ValidationError).
// An unpartitioned platform behaves as one region covering the whole
// mesh.

// RegionID indexes a region within its Platform's partition.
type RegionID int

// Region is one contiguous rectangular block of the mesh: all routers with
// X0 ≤ x ≤ X1 and Y0 ≤ y ≤ Y1 and the tiles attached to them.
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

// RegionOfTile returns the region owning a tile: the region of the router
// its network interface attaches to. It reads only the tile's immutable
// description, so it is safe without the lock that guards reservations.
func (p *Platform) RegionOfTile(id TileID) RegionID {
	return p.RegionOfPoint(p.Routers[p.Tile(id).Router].Pos)
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
