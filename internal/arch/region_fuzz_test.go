package arch

import (
	"testing"
)

// FuzzPartitionRegions drives the partition geometry with arbitrary mesh
// dimensions and region sizes and checks the invariant everything
// region-granular is built on: the regions tile the mesh — every router
// (and so every tile attached to one) lies in exactly one region's
// rectangle, and that region is RegionOfPoint's answer.
//
// The endpoint layout and the mapper's region bias assume this; a
// counterexample here would mean two regions could both "own" a tile.
func FuzzPartitionRegions(f *testing.F) {
	f.Add(8, 8, 4)
	f.Add(1, 1, 1)
	f.Add(8, 8, 0)   // unpartitioned degenerate case
	f.Add(5, 3, 2)   // clipped right/bottom blocks
	f.Add(6, 6, 9)   // one block covering the whole mesh
	f.Add(12, 2, 5)  // wide and flat
	f.Add(2, 12, -3) // negative size = unpartitioned
	f.Fuzz(func(t *testing.T, w, h, size int) {
		// Clamp to meshes small enough to scan exhaustively; the
		// geometry code has no behaviour that only appears at scale.
		w = 1 + abs(w)%12 // abs is the arch package's own helper
		h = 1 + abs(h)%12
		if size > 16 {
			size %= 17
		}
		p := NewMesh("fuzz", w, h, 1_000_000)
		n := p.PartitionRegions(size)
		if n != p.RegionCount() {
			t.Fatalf("PartitionRegions returned %d, RegionCount says %d", n, p.RegionCount())
		}
		if n < 1 {
			t.Fatalf("region count %d < 1", n)
		}
		regions := p.Regions()
		if len(regions) != n {
			t.Fatalf("Regions() has %d entries, want %d", len(regions), n)
		}

		// Disjoint and covering: every router lies in exactly one
		// region's rectangle, which is the region the platform reports.
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pt := Pt(x, y)
				owner := p.RegionOfPoint(pt)
				if owner < 0 || int(owner) >= n {
					t.Fatalf("router %v owned by out-of-range region %d (have %d)", pt, owner, n)
				}
				containers := 0
				for _, r := range regions {
					if r.Contains(pt) {
						containers++
						if r.ID != owner {
							t.Fatalf("router %v contained by region %d but owned by %d", pt, r.ID, owner)
						}
					}
				}
				if containers != 1 {
					t.Fatalf("router %v contained by %d regions, want exactly 1", pt, containers)
				}
			}
		}
	})
}
