package arch_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/workload"
)

// TestSlabMeshTopology checks the slab-built lookup tables against a
// brute-force scan of Links and Tiles: OutLinks, LinkBetween and the
// floor plan String draws, router by router, on thin, odd and full-size
// meshes, with routers that carry one tile, two tiles or none, and the
// 12×12 region platform, where some routers carry a processing tile plus
// a SRC or SINK tile. A Clone taken right after construction must be
// identical to the original.
func TestSlabMeshTopology(t *testing.T) {
	plats := []*arch.Platform{workload.SyntheticRegionPlatform(12, 12, 123, 3)}
	for _, d := range [][2]int{{1, 7}, {7, 1}, {3, 5}, {12, 12}} {
		p := arch.NewMesh(fmt.Sprintf("%dx%d", d[0], d[1]), d[0], d[1], 1000)
		attach := func(i, k int) {
			p.AttachTile(arch.TileSpec{
				Name: fmt.Sprintf("t%d.%d", i, k), Type: arch.TypeARM,
				At: p.Routers[i].Pos, ClockHz: 1, MemBytes: 1, NICapBps: 1,
			})
		}
		// Every fifth router gets no tile, every third a second one.
		for i := range p.Routers {
			if i%5 == 4 {
				continue
			}
			attach(i, 0)
			if i%3 == 0 {
				attach(i, 1)
			}
		}
		plats = append(plats, p)
	}
	for _, p := range plats {
		t.Run(p.Name, func(t *testing.T) {
			w, h := p.Width, p.Height
			if want := 2 * ((w-1)*h + w*(h-1)); len(p.Links) != want {
				t.Fatalf("%d links, want %d", len(p.Links), want)
			}
			rows := strings.Split(p.String(), "\n")[1:]
			for _, r := range p.Routers {
				var out []arch.LinkID
				for _, l := range p.Links {
					if l.From == r.ID {
						out = append(out, l.ID)
					}
				}
				if got := p.OutLinks(r.ID); !slices.Equal(got, out) {
					t.Fatalf("OutLinks(%d) = %v, scan %v", r.ID, got, out)
				}
				var at []string
				for _, tl := range p.Tiles {
					if tl.Router == r.ID {
						at = append(at, tl.Name)
					}
				}
				cell := "R"
				if len(at) > 0 {
					cell = "R[" + strings.Join(at, ",") + "]"
				}
				if got := strings.Fields(rows[r.Pos.Y])[r.Pos.X]; got != cell {
					t.Fatalf("String draws router %d as %s, scan %s", r.ID, got, cell)
				}
				for _, s := range p.Routers {
					var want *arch.Link
					for _, l := range p.Links {
						if l.From == r.ID && l.To == s.ID {
							want = l
						}
					}
					if got := p.LinkBetween(r.ID, s.ID); got != want {
						t.Fatalf("LinkBetween(%d, %d) = %v, scan %v", r.ID, s.ID, got, want)
					}
					if (want != nil) != (r.Pos.Manhattan(s.Pos) == 1) {
						t.Fatalf("routers %v and %v: link %v", r.Pos, s.Pos, want)
					}
				}
			}
			for i, tl := range p.Tiles {
				if tl.ID != arch.TileID(i) || p.TileByName(tl.Name) != tl {
					t.Fatalf("tile %d: id %d, by name %p, want %p", i, tl.ID, p.TileByName(tl.Name), tl)
				}
			}
			if err := arch.PlatformsIdentical(p.Clone(), p); err != nil {
				t.Fatalf("clone after construction: %v", err)
			}
		})
	}
}
