package arch

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// cowTestPlatform builds a partitioned mesh with a few tiles per region,
// ready for snapshot equivalence tests.
func cowTestPlatform(w, h, regionSize int) *Platform {
	p := NewMesh("cow", w, h, 1_000_000)
	p.PartitionRegions(regionSize)
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

// mutateRandomly applies a burst of random reservation changes through
// the write barrier, the way commits and mapper steps do.
func mutateRandomly(p *Platform, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			l := p.WLink(LinkID(rng.Intn(len(p.Links))))
			l.ReservedBps += int64(rng.Intn(1000))
		} else {
			t := p.WTile(TileID(rng.Intn(len(p.Tiles))))
			t.ReservedMem += int64(rng.Intn(4096))
			t.ReservedUtil += rng.Float64() * 0.01
			t.ReservedInBps += int64(rng.Intn(100))
			t.ReservedOutBps += int64(rng.Intn(100))
			t.Occupants = rng.Intn(4)
		}
		p.BumpVersion()
	}
}

// snapshotsIdentical compares two snapshots bit-for-bit: every tile and
// link struct (via PlatformsIdentical, shared with the crash-replay
// equivalence suite) and the version.
func snapshotsIdentical(a, b *Snapshot) error {
	if a.Version != b.Version {
		return fmt.Errorf("versions differ: %d vs %d", a.Version, b.Version)
	}
	return PlatformsIdentical(a.Plat, b.Plat)
}

// TestCoWSnapshotMatchesDeepCopy is the CoW equivalence property: across
// randomized mutation histories, a copy-on-write snapshot is
// bit-identical to a deep-copy snapshot taken at the same version, and
// stays so while the live platform mutates arbitrarily afterwards —
// including a ResetReservations, the bluntest write there is.
func TestCoWSnapshotMatchesDeepCopy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := cowTestPlatform(6, 6, 2+int(seed%3))
			mutateRandomly(p, rng, 40)
			if seed%2 == 1 {
				// A deep clone carries the region index but no shared
				// flags: its first snapshot allocates them.
				p = p.Clone()
			}

			cow := p.SnapshotCoW()
			deep := p.Snapshot()
			if err := snapshotsIdentical(cow, deep); err != nil {
				t.Fatalf("CoW snapshot differs from deep copy at capture: %v", err)
			}

			// Arbitrary live mutations must leave both snapshots frozen in
			// time and still identical to each other.
			mutateRandomly(p, rng, 60)
			if err := snapshotsIdentical(cow, deep); err != nil {
				t.Fatalf("live mutations leaked into a snapshot: %v", err)
			}
			p.ResetReservations()
			if err := snapshotsIdentical(cow, deep); err != nil {
				t.Fatalf("ResetReservations leaked into a snapshot: %v", err)
			}

			// And the live platform must have actually moved on: the CoW
			// snapshot is a past view, not an alias.
			if p.Residual().Equal(cow.Plat.Residual()) {
				t.Fatal("live platform still equals the snapshot after reset; mutations ineffective")
			}
		})
	}
}

// TestCoWSnapshotSequence pins the multi-snapshot protocol: snapshots
// taken at different points each keep their own point-in-time state.
func TestCoWSnapshotSequence(t *testing.T) {
	p := cowTestPlatform(4, 4, 2)
	s1 := p.SnapshotCoW()
	p.WTile(0).ReservedMem = 111
	p.BumpVersion()
	s2 := p.SnapshotCoW()
	p.WTile(0).ReservedMem = 222
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
}

// TestFrozenSnapshotWritePanics: a frozen CoW snapshot is immutable; the
// write barrier refuses instead of corrupting shared state.
func TestFrozenSnapshotWritePanics(t *testing.T) {
	p := cowTestPlatform(4, 4, 2)
	s := p.SnapshotCoW()
	defer func() {
		if recover() == nil {
			t.Fatal("WTile on a frozen snapshot platform did not panic")
		}
	}()
	s.Plat.WTile(0).ReservedMem = 1
}

// TestWritableSnapshotIsolation: a Writable derivative may be mutated
// freely without disturbing the frozen base or the live platform.
func TestWritableSnapshotIsolation(t *testing.T) {
	p := cowTestPlatform(4, 4, 2)
	p.WTile(3).ReservedMem = 77
	base := p.SnapshotCoW()
	w := base.Writable()
	if w == base {
		t.Fatal("Writable of a frozen snapshot must derive a new view")
	}
	w.Plat.WTile(3).ReservedMem = 999
	w.Plat.WLink(0).ReservedBps = 42
	if got := base.Plat.Tile(3).ReservedMem; got != 77 {
		t.Fatalf("writable mutation leaked into frozen base: ReservedMem=%d", got)
	}
	if got := p.Tile(3).ReservedMem; got != 77 {
		t.Fatalf("writable mutation leaked into live platform: ReservedMem=%d", got)
	}
	if got := w.Plat.Tile(3).ReservedMem; got != 999 {
		t.Fatalf("writable view lost its own write: ReservedMem=%d", got)
	}
	// A non-frozen (deep) snapshot is already writable and returned as-is.
	deep := p.Snapshot()
	if deep.Writable() != deep {
		t.Fatal("Writable of a deep snapshot should be the snapshot itself")
	}
}

// TestCoWFaultMeterCountsRegionFaults: the meter counts one fault per
// materialized region across the platform and its derivatives, and
// untouched regions never fault.
func TestCoWFaultMeterCountsRegionFaults(t *testing.T) {
	p := cowTestPlatform(6, 6, 3) // 2x2 regions
	var meter atomic.Uint64
	p.SetCoWFaultMeter(&meter)
	s := p.SnapshotCoW()
	if meter.Load() != 0 {
		t.Fatalf("capture alone faulted %d regions, want 0", meter.Load())
	}
	// Two writes to the same region: one fault.
	p.WTile(0).ReservedMem = 1
	p.WTile(0).ReservedUtil = 0.5
	if got := meter.Load(); got != 1 {
		t.Fatalf("faults after same-region writes = %d, want 1", got)
	}
	// A write through a derived writable view faults on the child too.
	w := s.Writable()
	w.Plat.WTile(0).ReservedMem = 2
	if got := meter.Load(); got != 2 {
		t.Fatalf("faults after child write = %d, want 2", got)
	}
}

// TestCloneIsDeepAndUnshared: Clone of a CoW-involved platform still
// yields a fully private deep copy — mutating it faults nothing and
// affects nobody.
func TestCloneIsDeepAndUnshared(t *testing.T) {
	p := cowTestPlatform(4, 4, 2)
	s := p.SnapshotCoW()
	c := s.Plat.Clone()
	if c.Frozen() {
		t.Fatal("deep clone of a frozen platform must not be frozen")
	}
	c.Tile(0).ReservedMem = 123 // direct write: the clone shares nothing
	if s.Plat.Tile(0).ReservedMem != 0 || p.Tile(0).ReservedMem != 0 {
		t.Fatal("deep clone shares structs with its origin")
	}
}
