package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rtsm/internal/arch"
)

// TestSyntheticRegionPlatformLayout pins the stream endpoints
// SyntheticRegionPlatform attaches after the processing tiles: names and
// router coordinates, in attachment order. Blocks are row-major and
// clipped at the mesh edge, so together they tile the mesh; a size ≤ 0 or
// one that covers the mesh gives the single SRC0/SINK0 pair.
func TestSyntheticRegionPlatformLayout(t *testing.T) {
	cases := []struct {
		w, h, size int
		want       string
	}{
		{12, 12, 3, "SRC0@0,2 SINK0@2,0 SRC1@3,2 SINK1@5,0 SRC2@6,2 SINK2@8,0 SRC3@9,2 SINK3@11,0 SRC4@0,5 SINK4@2,3 SRC5@3,5 SINK5@5,3 SRC6@6,5 SINK6@8,3 SRC7@9,5 SINK7@11,3 SRC8@0,8 SINK8@2,6 SRC9@3,8 SINK9@5,6 SRC10@6,8 SINK10@8,6 SRC11@9,8 SINK11@11,6 SRC12@0,11 SINK12@2,9 SRC13@3,11 SINK13@5,9 SRC14@6,11 SINK14@8,9 SRC15@9,11 SINK15@11,9"},
		{8, 8, 3, "SRC0@0,2 SINK0@2,0 SRC1@3,2 SINK1@5,0 SRC2@6,2 SINK2@7,0 SRC3@0,5 SINK3@2,3 SRC4@3,5 SINK4@5,3 SRC5@6,5 SINK5@7,3 SRC6@0,7 SINK6@2,6 SRC7@3,7 SINK7@5,6 SRC8@6,7 SINK8@7,6"},
		{8, 8, 0, "SRC0@0,7 SINK0@7,0"},
		{7, 5, 4, "SRC0@0,3 SINK0@3,0 SRC1@4,3 SINK1@6,0 SRC2@0,4 SINK2@3,4 SRC3@4,4 SINK3@6,4"},
		{6, 6, 6, "SRC0@0,5 SINK0@5,0"},
		{6, 6, 9, "SRC0@0,5 SINK0@5,0"},
		{16, 16, 4, "SRC0@0,3 SINK0@3,0 SRC1@4,3 SINK1@7,0 SRC2@8,3 SINK2@11,0 SRC3@12,3 SINK3@15,0 SRC4@0,7 SINK4@3,4 SRC5@4,7 SINK5@7,4 SRC6@8,7 SINK6@11,4 SRC7@12,7 SINK7@15,4 SRC8@0,11 SINK8@3,8 SRC9@4,11 SINK9@7,8 SRC10@8,11 SINK10@11,8 SRC11@12,11 SINK11@15,8 SRC12@0,15 SINK12@3,12 SRC13@4,15 SINK13@7,12 SRC14@8,15 SINK14@11,12 SRC15@12,15 SINK15@15,12"},
		{5, 9, 2, "SRC0@0,1 SINK0@1,0 SRC1@2,1 SINK1@3,0 SRC2@4,1 SINK2@4,0 SRC3@0,3 SINK3@1,2 SRC4@2,3 SINK4@3,2 SRC5@4,3 SINK5@4,2 SRC6@0,5 SINK6@1,4 SRC7@2,5 SINK7@3,4 SRC8@4,5 SINK8@4,4 SRC9@0,7 SINK9@1,6 SRC10@2,7 SINK10@3,6 SRC11@4,7 SINK11@4,6 SRC12@0,8 SINK12@1,8 SRC13@2,8 SINK13@3,8 SRC14@4,8 SINK14@4,8"},
	}
	for _, c := range cases {
		p := SyntheticRegionPlatform(c.w, c.h, 1, c.size)
		var got []string
		for _, tl := range p.Tiles[c.w*c.h:] {
			pos := p.Pos(tl.ID)
			got = append(got, fmt.Sprintf("%s@%d,%d", tl.Name, pos.X, pos.Y))
		}
		if g := strings.Join(got, " "); g != c.want {
			t.Errorf("%d×%d size %d:\n got %s\nwant %s", c.w, c.h, c.size, g, c.want)
		}
	}
}

// TestFigure2LayoutDerivation re-derives the tile placement used by
// Hiperlan2Platform, making the EXPERIMENTS.md claim reproducible inside
// the repository: with A/D and Sink fixed at the figure's left-column
// positions, exactly three placements of the four processing tiles make
// the paper's Table 2 cost sequence (11, 11, 9, 7) come out, and the
// platform uses one of them.
func TestFigure2LayoutDerivation(t *testing.T) {
	var cells []arch.Point
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			cells = append(cells, arch.Pt(x, y))
		}
	}
	ad := arch.Pt(0, 2)
	sink := arch.Pt(0, 1)
	// Cost of the receiver chain A/D → Pfx → Frq → iOFDM → Rem → Sink
	// under a placement, as the plain sum of Manhattan distances.
	cost := func(pfx, frq, io, rem arch.Point) int {
		return ad.Manhattan(pfx) + pfx.Manhattan(frq) + frq.Manhattan(io) +
			io.Manhattan(rem) + rem.Manhattan(sink)
	}
	type layout struct{ a1, a2, m1, m2 arch.Point }
	var solutions []layout
	used := func(p arch.Point, taken ...arch.Point) bool {
		if p == ad || p == sink {
			return true
		}
		for _, q := range taken {
			if p == q {
				return true
			}
		}
		return false
	}
	for _, a1 := range cells {
		if used(a1) {
			continue
		}
		for _, a2 := range cells {
			if used(a2, a1) {
				continue
			}
			for _, m1 := range cells {
				if used(m1, a1, a2) {
					continue
				}
				for _, m2 := range cells {
					if used(m2, a1, a2, m1) {
						continue
					}
					// Table 2's four configurations: initial greedy
					// (Pfx@ARM1, Frq@ARM2, iOFDM@M1, Rem@M2), the
					// rejected ARM swap, the kept Montium swap, and the
					// kept ARM swap.
					if cost(a1, a2, m1, m2) == 11 &&
						cost(a2, a1, m1, m2) == 11 &&
						cost(a1, a2, m2, m1) == 9 &&
						cost(a2, a1, m2, m1) == 7 {
						solutions = append(solutions, layout{a1, a2, m1, m2})
					}
				}
			}
		}
	}
	if len(solutions) != 3 {
		t.Fatalf("found %d layouts matching Table 2, want 3 (see EXPERIMENTS.md §E3)", len(solutions))
	}
	// The platform must use one of them.
	p := Hiperlan2Platform()
	got := layout{
		a1: p.Pos(p.TileByName("ARM1").ID),
		a2: p.Pos(p.TileByName("ARM2").ID),
		m1: p.Pos(p.TileByName("MONTIUM1").ID),
		m2: p.Pos(p.TileByName("MONTIUM2").ID),
	}
	if p.Pos(p.TileByName("A/D").ID) != ad || p.Pos(p.TileByName("Sink").ID) != sink {
		t.Fatal("A/D or Sink moved off the figure's positions")
	}
	for _, s := range solutions {
		if s == got {
			return
		}
	}
	t.Fatalf("platform layout %+v is not among the Table 2-consistent solutions %+v", got, solutions)
}

// TestSyntheticPlatformsMatchTileByTile holds the one-call construction
// to the tile-by-tile one it replaced: the same RNG draws, tile IDs,
// names, order and indexes, and a description PlatformsIdentical accepts.
func TestSyntheticPlatformsMatchTileByTile(t *testing.T) {
	oneByOne := func(w, h int, seed int64, regionSize int) *arch.Platform {
		rng := rand.New(rand.NewSource(seed))
		p := arch.NewMesh(fmt.Sprintf("synthetic-%dx%d-seed%d", w, h, seed), w, h, 800_000_000)
		i := 0
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				tt := synthTypes[rng.Intn(len(synthTypes))]
				spec := arch.TileSpec{Name: string(tt) + strconv.Itoa(i), Type: tt, At: arch.Pt(x, y),
					ClockHz: 200_000_000, NICapBps: 800_000_000}
				switch tt {
				case arch.TypeMontium:
					spec.MemBytes, spec.MaxOccupants = 16<<10, 1
				case arch.TypeDSP:
					spec.MemBytes = 32 << 10
				default:
					spec.MemBytes = 64 << 10
				}
				p.AttachTile(spec)
				i++
			}
		}
		if regionSize <= 0 {
			regionSize = max(w, h)
		}
		r := 0
		for y0 := 0; y0 < h; y0 += regionSize {
			for x0 := 0; x0 < w; x0 += regionSize {
				x1, y1 := min(x0+regionSize, w)-1, min(y0+regionSize, h)-1
				p.AttachTile(arch.TileSpec{Name: "SRC" + strconv.Itoa(r), Type: arch.TypeSource, At: arch.Pt(x0, y1),
					ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000})
				p.AttachTile(arch.TileSpec{Name: "SINK" + strconv.Itoa(r), Type: arch.TypeSink, At: arch.Pt(x1, y0),
					ClockHz: 200_000_000, MemBytes: 64 << 10, NICapBps: 800_000_000})
				r++
			}
		}
		return p
	}
	for _, c := range []struct {
		w, h int
		seed int64
		size int
	}{{12, 12, 123, 3}, {8, 8, 123, 0}, {8, 8, 1, 3}, {16, 16, 1, 4}, {7, 5, 9, 4}, {1, 1, 2, 0}, {40, 40, 5, 3}} {
		got, want := SyntheticRegionPlatform(c.w, c.h, c.seed, c.size), oneByOne(c.w, c.h, c.seed, c.size)
		if err := arch.PlatformsIdentical(got, want); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got.Name != want.Name {
			t.Fatalf("%+v: platform %q, want %q", c, got.Name, want.Name)
		}
		for _, tl := range want.Tiles {
			if g := got.TileByName(tl.Name); g == nil || g.ID != tl.ID {
				t.Fatalf("%+v: TileByName(%q) = %v, want tile %d", c, tl.Name, g, tl.ID)
			}
		}
		for _, tt := range want.TileTypes() {
			if !slices.Equal(got.TilesOfType(tt), want.TilesOfType(tt)) {
				t.Fatalf("%+v: TilesOfType(%s) = %v, want %v", c, tt, got.TilesOfType(tt), want.TilesOfType(tt))
			}
		}
		for r := range want.Routers {
			if g, w := got.TilesAtRouter(arch.RouterID(r)), want.TilesAtRouter(arch.RouterID(r)); !slices.Equal(g, w) {
				t.Fatalf("%+v: TilesAtRouter(%d) = %v, want %v", c, r, g, w)
			}
		}
	}
	if err := arch.PlatformsIdentical(SyntheticPlatform(9, 7, 3), oneByOne(9, 7, 3, 0)); err != nil {
		t.Fatalf("SyntheticPlatform: %v", err)
	}
}
