package arch

import "testing"

// TestPartitionSingleRegionDefault pins the degenerate case: an
// unpartitioned platform is one region covering the whole mesh, and every
// tile belongs to it.
func TestPartitionSingleRegionDefault(t *testing.T) {
	p := NewMesh("m", 4, 3, 1000)
	p.AttachTile(TileSpec{Name: "t", Type: TypeARM, At: Pt(2, 1), ClockHz: 1, MemBytes: 1})
	if got := p.RegionCount(); got != 1 {
		t.Fatalf("unpartitioned RegionCount = %d, want 1", got)
	}
	r := p.Region(0)
	if r.X0 != 0 || r.Y0 != 0 || r.X1 != 3 || r.Y1 != 2 {
		t.Fatalf("single region bounds = %+v, want the whole 4×3 mesh", r)
	}
	if got := p.RegionOfTile(0); got != 0 {
		t.Fatalf("RegionOfTile = %d, want 0", got)
	}
}

// TestPartitionOneByOneMesh checks the smallest platform: a 1×1 mesh
// partitions into exactly one region for every region size.
func TestPartitionOneByOneMesh(t *testing.T) {
	p := NewMesh("tiny", 1, 1, 1000)
	for _, size := range []int{0, 1, 2, 8} {
		if got := p.PartitionRegions(size); got != 1 {
			t.Fatalf("PartitionRegions(%d) on 1×1 mesh = %d regions, want 1", size, got)
		}
		if got := p.RegionOfPoint(Pt(0, 0)); got != 0 {
			t.Fatalf("RegionOfPoint = %d, want 0", got)
		}
	}
}

// TestPartitionLargerThanMesh checks that a region size exceeding both
// mesh dimensions collapses to the single-region degenerate case.
func TestPartitionLargerThanMesh(t *testing.T) {
	p := NewMesh("m", 3, 2, 1000)
	if got := p.PartitionRegions(5); got != 1 {
		t.Fatalf("PartitionRegions(5) on 3×2 mesh = %d regions, want 1", got)
	}
	if p.Region(0).X1 != 2 || p.Region(0).Y1 != 1 {
		t.Fatalf("degenerate region bounds = %+v", p.Region(0))
	}
}

// TestPartitionGeometry checks the 8×8 / size-4 quadrant partition: four
// regions, row-major, with every router owned by the quadrant containing
// it.
func TestPartitionGeometry(t *testing.T) {
	p := NewMesh("m", 8, 8, 1000)
	if got := p.PartitionRegions(4); got != 4 {
		t.Fatalf("PartitionRegions(4) on 8×8 = %d regions, want 4", got)
	}
	cases := []struct {
		pt   Point
		want RegionID
	}{
		{Pt(0, 0), 0}, {Pt(3, 3), 0}, {Pt(4, 0), 1}, {Pt(7, 3), 1},
		{Pt(0, 4), 2}, {Pt(3, 7), 2}, {Pt(4, 4), 3}, {Pt(7, 7), 3},
	}
	for _, c := range cases {
		if got := p.RegionOfPoint(c.pt); got != c.want {
			t.Errorf("RegionOfPoint(%v) = %d, want %d", c.pt, got, c.want)
		}
	}
	// Clipped partitions: 5×5 with size 3 → 2×2 regions, the right and
	// bottom ones clipped.
	q := NewMesh("m2", 5, 5, 1000)
	if got := q.PartitionRegions(3); got != 4 {
		t.Fatalf("PartitionRegions(3) on 5×5 = %d regions, want 4", got)
	}
	if r := q.Region(3); r.X0 != 3 || r.Y0 != 3 || r.X1 != 4 || r.Y1 != 4 {
		t.Fatalf("clipped region 3 bounds = %+v, want (3,3)-(4,4)", r)
	}
}
