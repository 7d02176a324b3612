package arch

import "testing"

func snapPlatform() *Platform {
	p := NewMesh("snap", 2, 2, 1000)
	p.AttachTile(TileSpec{Name: "arm0", Type: TypeARM, At: Pt(0, 0), ClockHz: 100_000_000, MemBytes: 4096, NICapBps: 500})
	p.AttachTile(TileSpec{Name: "mont0", Type: TypeMontium, At: Pt(1, 1), ClockHz: 100_000_000, MemBytes: 2048, NICapBps: 500, MaxOccupants: 1})
	return p
}

func TestSnapshotIsolatesMutations(t *testing.T) {
	p := snapPlatform()
	s := p.Snapshot()
	if s.Version != p.Version() {
		t.Fatalf("snapshot version %d, platform %d", s.Version, p.Version())
	}
	// Mutating the snapshot must not touch the live platform.
	s.Plat.Tiles[0].ReservedMem = 1234
	s.Plat.Links[0].ReservedBps = 999
	if p.Tiles[0].ReservedMem != 0 || p.Links[0].ReservedBps != 0 {
		t.Fatal("snapshot mutation leaked into live platform")
	}
	// And vice versa.
	p.Tiles[1].Occupants = 1
	if s.Plat.Tiles[1].Occupants != 0 {
		t.Fatal("live mutation leaked into snapshot")
	}
}

func TestVersionTracksReservationChanges(t *testing.T) {
	p := snapPlatform()
	v0 := p.Version()
	if got := p.BumpVersion(); got != v0+1 {
		t.Fatalf("BumpVersion = %d, want %d", got, v0+1)
	}
	// Clone carries the version so a snapshot taken from a clone still
	// compares meaningfully against the original.
	if c := p.Clone(); c.Version() != p.Version() {
		t.Fatal("clone dropped version")
	}
}

func TestResidualReflectsReservations(t *testing.T) {
	p := snapPlatform()
	before := p.Residual()
	if before.Tiles[0].FreeMemBytes != 4096 || before.Tiles[0].FreeSlots != -1 {
		t.Fatalf("fresh residual wrong: %+v", before.Tiles[0])
	}
	if before.Tiles[1].FreeSlots != 1 {
		t.Fatalf("MaxOccupants=1 tile should have 1 free slot: %+v", before.Tiles[1])
	}

	p.Tiles[0].ReservedMem = 1024
	p.Tiles[0].ReservedUtil = 0.25
	p.Tiles[1].Occupants = 1
	p.Links[2].ReservedBps = 400
	after := p.Residual()
	if after.Tiles[0].FreeMemBytes != 3072 || !utilEqual(after.Tiles[0].FreeUtil, 0.75) {
		t.Fatalf("tile residual wrong: %+v", after.Tiles[0])
	}
	if after.Tiles[1].FreeSlots != 0 {
		t.Fatalf("occupied Montium should have 0 free slots: %+v", after.Tiles[1])
	}
	if after.Links[2].FreeBps != 600 {
		t.Fatalf("link residual wrong: %+v", after.Links[2])
	}
	if before.Equal(after) {
		t.Fatal("Equal missed a reservation difference")
	}

	// Releasing everything restores equality with the fresh residual,
	// regardless of the version counter.
	p.Tiles[0].ReservedMem, p.Tiles[0].ReservedUtil = 0, 0
	p.Tiles[1].Occupants = 0
	p.Links[2].ReservedBps = 0
	p.BumpVersion()
	if got := p.Residual(); !got.Equal(before) {
		t.Fatalf("residual not restored after reset: %+v", got)
	}
}

func TestResidualDiffAttributesChanges(t *testing.T) {
	p := snapPlatform()
	before := p.Residual()
	if d := before.Diff(before); len(d.Tiles) != 0 || len(d.Links) != 0 {
		t.Fatalf("self-diff not empty: %+v", d)
	}

	p.Tiles[0].ReservedMem = 1024
	p.Tiles[0].ReservedUtil = 0.25
	p.Tiles[1].Occupants = 1
	p.Links[2].ReservedBps = 400
	after := p.Residual()

	d := before.Diff(after)
	if len(d.Tiles) != 2 || len(d.Links) != 1 {
		t.Fatalf("diff should name exactly the changed resources: %+v", d)
	}
	if d.Tiles[0].Tile != before.Tiles[0].Tile || d.Tiles[0].FreeMemBytes != -1024 || !utilEqual(d.Tiles[0].FreeUtil, -0.25) {
		t.Fatalf("tile 0 delta wrong: %+v", d.Tiles[0])
	}
	if d.Tiles[1].FreeSlots != -1 {
		t.Fatalf("tile 1 slot delta wrong: %+v", d.Tiles[1])
	}
	if d.Links[0].Link != after.Links[2].Link || d.Links[0].FreeBps != -400 {
		t.Fatalf("link delta wrong: %+v", d.Links[0])
	}

	// The reverse diff reports the same resources with capacity appearing.
	rd := after.Diff(before)
	if len(rd.Tiles) != 2 || len(rd.Links) != 1 || rd.Tiles[0].FreeMemBytes != 1024 ||
		rd.Tiles[1].FreeSlots != 1 || rd.Links[0].FreeBps != 400 {
		t.Fatalf("reverse diff should mirror the forward one: %+v", rd)
	}
}
