package arch

import (
	"fmt"
	"math/rand"
	"testing"
)

// cloneTestPlatform builds a mesh with one tile per router, ready for
// snapshot equivalence tests.
func cloneTestPlatform(w, h int) *Platform {
	p := NewMesh("clone", w, h, 1_000_000)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.AttachTile(TileSpec{
				Name: Pt(x, y).String(), Type: TypeARM, At: Pt(x, y),
				ClockHz: 100_000_000, MemBytes: 1 << 20, NICapBps: 500_000,
				MaxOccupants: 4,
			})
		}
	}
	return p
}

// mutateRandomly applies a burst of random state changes — reservations
// the way commits and mapper steps write them, faults and restorations,
// and now and then a pristine platform copied over the whole state, the
// bluntest write there is.
func mutateRandomly(p *Platform, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		tid := TileID(rng.Intn(len(p.Tiles)))
		lid := LinkID(rng.Intn(len(p.Links)))
		switch rng.Intn(12) {
		case 0:
			cloneTestPlatform(p.Width, p.Height).CopyInto(p)
		case 1:
			p.FailTile(tid)
		case 2:
			p.RestoreTile(tid)
		case 3:
			p.FailLink(lid)
		case 4:
			p.RestoreLink(lid)
		case 5, 6, 7:
			p.Link(lid).ReservedBps += int64(rng.Intn(1000))
			p.BumpVersion()
		default:
			t := p.Tile(tid)
			t.ReservedMem += int64(rng.Intn(4096))
			t.ReservedUtil += rng.Float64() * 0.01
			t.ReservedInBps += int64(rng.Intn(100))
			t.ReservedOutBps += int64(rng.Intn(100))
			t.Occupants = int32(rng.Intn(4))
			p.BumpVersion()
		}
	}
}

// snapshotMatches compares a snapshot with a reference platform bit for
// bit: every tile and link (via PlatformsIdentical, shared with the
// crash-replay equivalence suite) and the version.
func snapshotMatches(s *Snapshot, ref *Platform) error {
	if s.Version != ref.Version() || s.Plat.Version() != ref.Version() {
		return fmt.Errorf("versions differ: snapshot %d (platform %d) vs reference %d",
			s.Version, s.Plat.Version(), ref.Version())
	}
	return PlatformsIdentical(s.Plat, ref)
}

// TestCoWSnapshotMatchesDeepCopy is the point-in-time property of
// Snapshot: across randomized mutation histories, a snapshot is
// bit-identical to a reference at the same version — a separately built
// platform (its own descriptions) driven through the same history — and
// stays so while the live platform mutates arbitrarily afterwards.
func TestCoWSnapshotMatchesDeepCopy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := cloneTestPlatform(6, 6)
			ref := cloneTestPlatform(6, 6)
			mutateRandomly(p, rand.New(rand.NewSource(seed)), 40)
			mutateRandomly(ref, rand.New(rand.NewSource(seed)), 40)
			if seed%2 == 1 {
				p = p.Clone() // a copy of a copy is as good as the original
			}

			snap := p.Snapshot()
			if err := snapshotMatches(snap, ref); err != nil {
				t.Fatalf("snapshot differs from the reference at capture: %v", err)
			}

			rng := rand.New(rand.NewSource(seed + 1000))
			mutateRandomly(p, rng, 60)
			if err := snapshotMatches(snap, ref); err != nil {
				t.Fatalf("live mutations leaked into a snapshot: %v", err)
			}
			cloneTestPlatform(6, 6).CopyInto(p)
			p.FailTile(0)
			p.FailLink(0)
			if err := snapshotMatches(snap, ref); err != nil {
				t.Fatalf("reset and faults leaked into a snapshot: %v", err)
			}

			// And the live platform must have actually moved on: the
			// snapshot is a past view, not an alias.
			if PlatformsIdentical(p, snap.Plat) == nil {
				t.Fatal("live platform still equals the snapshot; mutations ineffective")
			}
		})
	}
}

// TestCoWSnapshotSequence: snapshots taken at different points each keep
// their own point-in-time state.
func TestCoWSnapshotSequence(t *testing.T) {
	p := cloneTestPlatform(4, 4)
	s1 := p.Snapshot()
	p.Tile(0).ReservedMem = 111
	p.BumpVersion()
	s2 := p.Snapshot()
	p.Tile(0).ReservedMem = 222
	p.BumpVersion()

	if got := s1.Plat.Tile(0).ReservedMem; got != 0 {
		t.Fatalf("first snapshot sees ReservedMem=%d, want 0", got)
	}
	if got := s2.Plat.Tile(0).ReservedMem; got != 111 {
		t.Fatalf("second snapshot sees ReservedMem=%d, want 111", got)
	}
	if got := p.Tile(0).ReservedMem; got != 222 {
		t.Fatalf("live platform sees ReservedMem=%d, want 222", got)
	}
	if s1.Version+1 != s2.Version || s2.Version+1 != p.Version() {
		t.Fatalf("versions %d, %d, %d are not consecutive", s1.Version, s2.Version, p.Version())
	}
}

// TestCloneIsDeepAndUnshared: a clone shares the description and none of
// the state — writes on either side, to tiles or links, stay there.
func TestCloneIsDeepAndUnshared(t *testing.T) {
	p := cloneTestPlatform(4, 4)
	c := p.Snapshot().Plat.Clone()
	c.Tile(0).ReservedMem = 123
	c.Link(0).ReservedBps = 45
	p.Tile(1).Occupants = 2
	p.FailLink(1)
	if p.Tile(0).ReservedMem != 0 || p.Link(0).ReservedBps != 0 {
		t.Fatal("clone's writes reached its origin")
	}
	if c.Tile(1).Occupants != 0 || c.Link(1).Failed {
		t.Fatal("origin's writes reached the clone")
	}
	if c.Tile(0).TileInfo != p.Tile(0).TileInfo || c.Link(0).LinkInfo != p.Link(0).LinkInfo {
		t.Fatal("clone does not share the immutable description")
	}
	if c.TileByName("(1,1)").ID != p.TileByName("(1,1)").ID {
		t.Fatal("clone lost the name index")
	}
}
