package noc

import (
	"math/rand"
	"reflect"
	"testing"

	"rtsm/internal/arch"
)

// The differential tests hold ShortestAvailable to the search it replaced
// (ref_test.go): the same routers, the same links, the same ErrNoPath.

const refLinkCap = 1000

// congested builds a w×h mesh whose links each take their state from one
// draw in [0, 256): half stay free, most of the rest carry a reservation
// of up to the whole capacity, a few have failed.
func congested(w, h int, draw func() int) *arch.Platform {
	p := arch.NewMesh("congested", w, h, refLinkCap)
	for _, l := range p.Links {
		switch v := draw(); {
		case v < 128:
		case v < 240:
			l.ReservedBps = int64(v-127) * refLinkCap / 112
		default:
			p.FailLink(l.ID)
		}
	}
	return p
}

// checkRoutes draws queries — endpoints anywhere on the mesh, demands from
// nothing to more than a link carries — and fails the test on the first
// one the two searches answer differently. A path found is reserved, as
// step 3 does, so later queries meet the load of earlier ones.
func checkRoutes(t *testing.T, p *arch.Platform, queries int, draw func() int) {
	t.Helper()
	for ; queries > 0; queries-- {
		from := arch.RouterID(draw() % len(p.Routers))
		to := arch.RouterID(draw() % len(p.Routers))
		need := int64(draw()) * 5
		want, wantErr := shortestAvailableRef(p, from, to, need)
		got, gotErr := ShortestAvailable(p, from, to, need)
		if gotErr != wantErr || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d×%d mesh, %d→%d needing %d B/s: got %+v, %v; reference %+v, %v",
				p.Width, p.Height, from, to, need, got, gotErr, want, wantErr)
		}
		for _, lid := range got.Links {
			p.Link(lid).ReservedBps += need
		}
	}
}

func TestShortestAvailableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	draw := func() int { return rng.Intn(256) }
	found, failed := 0, 0
	for trial := 0; trial < 400; trial++ {
		// Sizes in no order, so the pooled scratch grows and is reused by
		// smaller meshes with stale stamps in it.
		p := congested(3+rng.Intn(10), 3+rng.Intn(10), draw)
		checkRoutes(t, p, 40, draw)
		// Tallied apart from the comparison: the generator must keep
		// producing both answers.
		for q := 0; q < 10; q++ {
			if _, err := ShortestAvailable(p, arch.RouterID(draw()%len(p.Routers)), 0, int64(draw())*5); err == nil {
				found++
			} else {
				failed++
			}
		}
	}
	if found < failed/10 || failed < found/10 {
		t.Errorf("%d queries routed, %d did not; the generator has drifted", found, failed)
	}
}

// FuzzShortestAvailable lets the fuzzer pick the mesh, the state of every
// link and the queries: two bytes of dimensions, then the draws; past the
// end of the input every draw is 0.
func FuzzShortestAvailable(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{9, 9, 200, 130, 250, 7, 143, 60})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 2+rng.Intn(600))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		draw := func() int {
			if len(data) == 0 {
				return 0
			}
			v := data[0]
			data = data[1:]
			return int(v)
		}
		p := congested(3+draw()%10, 3+draw()%10, draw)
		checkRoutes(t, p, 1+len(data)/3, draw)
	})
}
