package arch

import (
	"strings"
	"testing"
	"testing/quick"
)

func mesh3x3(t *testing.T) *Platform {
	t.Helper()
	p := NewMesh("test", 3, 3, 1_000_000_000)
	p.AttachTile(TileSpec{Name: "ARM1", Type: TypeARM, At: Point{2, 1}, ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 1e9})
	p.AttachTile(TileSpec{Name: "ARM2", Type: TypeARM, At: Point{1, 1}, ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 1e9})
	p.AttachTile(TileSpec{Name: "M1", Type: TypeMontium, At: Point{0, 0}, ClockHz: 100e6, MemBytes: 16 << 10, NICapBps: 1e9})
	p.AttachTile(TileSpec{Name: "M2", Type: TypeMontium, At: Point{2, 0}, ClockHz: 100e6, MemBytes: 16 << 10, NICapBps: 1e9})
	return p
}

func TestMeshConstruction(t *testing.T) {
	p := NewMesh("m", 3, 2, 100)
	if len(p.Routers) != 6 {
		t.Fatalf("routers = %d, want 6", len(p.Routers))
	}
	// 3×2 mesh: horizontal 2 per row × 2 rows = 4, vertical 3; ×2 directions.
	if len(p.Links) != 14 {
		t.Fatalf("links = %d, want 14", len(p.Links))
	}
	for _, r := range p.Routers {
		if r.LatencyCycles != 4 {
			t.Errorf("router %d latency = %d, want 4 (paper §4.3)", r.ID, r.LatencyCycles)
		}
	}
	if p.RouterAt(Point{2, 1}).Pos != (Point{2, 1}) {
		t.Error("RouterAt returned wrong router")
	}
}

func TestMeshLinkSymmetry(t *testing.T) {
	p := NewMesh("m", 4, 4, 100)
	for _, l := range p.Links {
		back := p.LinkBetween(l.To, l.From)
		if back == nil {
			t.Fatalf("link %d has no reverse", l.ID)
		}
		if back.CapBps != l.CapBps {
			t.Errorf("asymmetric capacity on %d", l.ID)
		}
	}
}

func TestAttachAndLookup(t *testing.T) {
	p := mesh3x3(t)
	if got := p.TileByName("ARM2"); got == nil || got.Type != TypeARM {
		t.Fatalf("TileByName(ARM2) = %v", got)
	}
	if p.TileByName("nope") != nil {
		t.Error("unknown tile should be nil")
	}
	arms := p.TilesOfType(TypeARM)
	if len(arms) != 2 || p.Tile(arms[0]).Name != "ARM1" {
		t.Errorf("TilesOfType(ARM) = %v; declaration order must be preserved", arms)
	}
	types := p.TileTypes()
	if len(types) != 2 || types[0] != TypeARM || types[1] != TypeMontium {
		t.Errorf("TileTypes = %v", types)
	}
	at := p.TilesAtRouter(p.RouterAt(Point{0, 0}).ID)
	if len(at) != 1 || p.Tile(at[0]).Name != "M1" {
		t.Errorf("TilesAtRouter(0,0) = %v", at)
	}
}

func TestManhattan(t *testing.T) {
	p := mesh3x3(t)
	a1 := p.TileByName("ARM1").ID // (2,1)
	m1 := p.TileByName("M1").ID   // (0,0)
	if got := p.Manhattan(a1, m1); got != 3 {
		t.Errorf("Manhattan(ARM1,M1) = %d, want 3", got)
	}
	if got := p.Manhattan(a1, a1); got != 0 {
		t.Errorf("self distance = %d", got)
	}
}

func TestManhattanProperties(t *testing.T) {
	// Symmetry and triangle inequality on arbitrary points.
	sym := func(ax, ay, bx, by int8) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		return a.Manhattan(b) == b.Manhattan(a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error(err)
	}
	tri := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		c := Point{int(cx), int(cy)}
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c)
	}
	if err := quick.Check(tri, nil); err != nil {
		t.Error(err)
	}
}

func TestCycleBudget(t *testing.T) {
	p := mesh3x3(t)
	arm := p.TileByName("ARM1") // 200 MHz
	// 4 µs symbol period at 200 MHz = 800 cycles.
	if got := arm.CycleBudget(4000); got != 800 {
		t.Errorf("CycleBudget(4µs) = %d, want 800", got)
	}
}

func TestReservationsAndReset(t *testing.T) {
	p := mesh3x3(t)
	tl := p.TileByName("M1")
	tl.ReservedMem = 1000
	tl.Occupants = 1
	p.Links[0].ReservedBps = 500
	if tl.FreeMem() != (16<<10)-1000 {
		t.Errorf("FreeMem = %d", tl.FreeMem())
	}
	if p.Links[0].FreeBps() != 1_000_000_000-500 {
		t.Errorf("FreeBps = %d", p.Links[0].FreeBps())
	}
	p.ResetReservations()
	if tl.ReservedMem != 0 || tl.Occupants != 0 || p.Links[0].ReservedBps != 0 {
		t.Error("ResetReservations left state behind")
	}
}

func TestCloneIsolation(t *testing.T) {
	p := mesh3x3(t)
	q := p.Clone()
	q.TileByName("ARM1").ReservedMem = 999
	q.Links[3].ReservedBps = 77
	if p.TileByName("ARM1").ReservedMem != 0 {
		t.Error("clone shares tile state")
	}
	if p.Links[3].ReservedBps != 0 {
		t.Error("clone shares link state")
	}
}

func TestLinkAdjacency(t *testing.T) {
	p := NewMesh("m", 3, 3, 100)
	center := p.RouterAt(Point{1, 1}).ID
	if got := len(p.OutLinks(center)); got != 4 {
		t.Errorf("center out-degree = %d, want 4", got)
	}
	corner := p.RouterAt(Point{0, 0}).ID
	if got := len(p.OutLinks(corner)); got != 2 {
		t.Errorf("corner out-degree = %d, want 2", got)
	}
	for _, id := range p.OutLinks(center) {
		if p.Link(id).From != center {
			t.Error("OutLinks contains link not leaving the router")
		}
	}
}

func TestPlatformString(t *testing.T) {
	p := mesh3x3(t)
	s := p.String()
	for _, want := range []string{"3×3 mesh", "R[M1]", "R[ARM1]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestDuplicateTilePanics(t *testing.T) {
	p := NewMesh("m", 2, 2, 100)
	p.AttachTile(TileSpec{Name: "t", Type: TypeARM, At: Point{0, 0}})
	defer func() {
		if recover() == nil {
			t.Error("duplicate tile name did not panic")
		}
	}()
	p.AttachTile(TileSpec{Name: "t", Type: TypeARM, At: Point{1, 0}})
}
