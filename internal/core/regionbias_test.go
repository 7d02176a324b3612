package core

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// biasApp builds src → a → sink with a single ARM implementation for a,
// so the only placement freedom is which ARM tile hosts it.
func biasApp() (*model.Application, *model.Library) {
	app := model.NewApplication("bias-line", model.QoS{PeriodNs: 4000})
	src := app.AddPinnedProcess("src", "SRC")
	a := app.AddProcess("a")
	sink := app.AddPinnedProcess("sink", "SINK")
	app.Connect(src, a, 16, 4)
	app.Connect(a, sink, 16, 4)
	lib := model.NewLibrary()
	lib.Add(&model.Implementation{
		Process: "a", TileType: arch.TypeARM,
		WCET:            csdf.Vals(2, 480, 2),
		In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
		Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 16)},
		EnergyPerPeriod: 40, MemBytes: 1024,
	})
	return app, lib
}

// tileSpan returns the set of regions the mapping's tiles occupy.
func tileSpan(plat *arch.Platform, res *Result) map[arch.RegionID]struct{} {
	span := make(map[arch.RegionID]struct{})
	for _, tid := range res.Mapping.Tile {
		span[plat.RegionOfTile(tid)] = struct{}{}
	}
	return span
}

// TestRegionBiasNarrowsFootprint pins the step-1 half of region-aware
// placement: with both endpoints pinned in region 0 and ARM tiles in
// both regions, the unbiased first-fit follows declaration order onto
// the out-of-region tile (footprint spans two regions), while the biased
// mapper scans regions the mapping already occupies first and keeps the
// whole footprint inside region 0. NoStep2 isolates first-fit from the
// local search, which could otherwise also pull the process home.
func TestRegionBiasNarrowsFootprint(t *testing.T) {
	build := func() *arch.Platform {
		plat := arch.NewMesh("biasplat", 4, 2, 800_000_000)
		plat.PartitionRegions(2)
		// Declaration order puts the out-of-region ARM first so plain
		// first-fit provably lands there.
		plat.AttachTile(arch.TileSpec{Name: "ARM_far", Type: arch.TypeARM, At: arch.Pt(2, 0),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "ARM_near", Type: arch.TypeARM, At: arch.Pt(0, 0),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(1, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		return plat
	}
	app, lib := biasApp()
	aID := app.ProcessByName("a").ID

	unbiased := NewMapper(lib)
	unbiased.Cfg = Config{NoStep2: true}
	plat := build()
	res, err := unbiased.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("unbiased map failed: %v", err)
	}
	if got := plat.Tile(res.Mapping.Tile[aID]).Name; got != "ARM_far" {
		t.Fatalf("unbiased first-fit placed a on %s, want ARM_far (declaration order)", got)
	}
	if span := tileSpan(plat, res); len(span) != 2 {
		t.Fatalf("unbiased footprint spans %d regions, want 2", len(span))
	}

	biased := NewMapper(lib)
	biased.Cfg = Config{NoStep2: true, RegionBias: 1}
	plat = build()
	res, err = biased.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("biased map failed: %v", err)
	}
	if got := plat.Tile(res.Mapping.Tile[aID]).Name; got != "ARM_near" {
		t.Fatalf("biased first-fit placed a on %s, want ARM_near (in-region)", got)
	}
	if span := tileSpan(plat, res); len(span) != 1 {
		t.Fatalf("biased footprint spans %d regions, want 1", len(span))
	}
}

// TestRegionBiasBlocksCrossRegionMove pins the step-2 half: the local
// search sees a relocation that halves the chain's hop count but opens a
// second region. Unbiased it takes the move; with the region penalty
// priced above the communication saving it stays home, trading a little
// energy for a one-region footprint.
func TestRegionBiasBlocksCrossRegionMove(t *testing.T) {
	build := func() *arch.Platform {
		plat := arch.NewMesh("biasmove", 4, 2, 800_000_000)
		plat.PartitionRegions(2)
		// ARM_in is declared first so step 1 starts the process there in
		// both runs; ARM_out is 2 hops closer to the endpoints in total
		// but sits across the region boundary.
		plat.AttachTile(arch.TileSpec{Name: "ARM_in", Type: arch.TypeARM, At: arch.Pt(0, 0),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "ARM_out", Type: arch.TypeARM, At: arch.Pt(2, 1),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(1, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(1, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		return plat
	}
	app, lib := biasApp()
	aID := app.ProcessByName("a").ID

	unbiased := NewMapper(lib)
	plat := build()
	res, err := unbiased.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("unbiased map failed: %v", err)
	}
	if got := plat.Tile(res.Mapping.Tile[aID]).Name; got != "ARM_out" {
		t.Fatalf("unbiased step 2 left a on %s, want the hop-cheaper ARM_out", got)
	}

	biased := NewMapper(lib)
	biased.Cfg = Config{RegionBias: 1e6}
	plat = build()
	res, err = biased.Map(app, plat)
	if err != nil || !res.Feasible {
		t.Fatalf("biased map failed: %v", err)
	}
	if got := plat.Tile(res.Mapping.Tile[aID]).Name; got != "ARM_in" {
		t.Fatalf("biased step 2 moved a to %s, want it held on ARM_in", got)
	}
	if span := tileSpan(plat, res); len(span) != 1 {
		t.Fatalf("biased footprint spans %d regions, want 1", len(span))
	}
}

// TestRegionBiasZeroIsPaperBehaviour guards the default: bias off on a
// partitioned platform must reproduce the region-oblivious placement
// bit-for-bit, so the paper-fidelity traces stay valid.
func TestRegionBiasZeroIsPaperBehaviour(t *testing.T) {
	build := func(partition bool) *arch.Platform {
		plat := arch.NewMesh("biaszero", 4, 2, 800_000_000)
		if partition {
			plat.PartitionRegions(2)
		}
		plat.AttachTile(arch.TileSpec{Name: "ARM_far", Type: arch.TypeARM, At: arch.Pt(2, 0),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "ARM_near", Type: arch.TypeARM, At: arch.Pt(0, 0),
			ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(1, 1),
			ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
		return plat
	}
	app, lib := biasApp()
	aID := app.ProcessByName("a").ID
	for _, partition := range []bool{false, true} {
		plat := build(partition)
		res, err := NewMapper(lib).Map(app, plat)
		if err != nil || !res.Feasible {
			t.Fatalf("map failed (partition=%v): %v", partition, err)
		}
		want := plat.Tile(res.Mapping.Tile[aID]).Name
		if partition && want == "" {
			t.Fatal("unreachable")
		}
		if !partition {
			continue
		}
		// Partitioned, bias zero: same tile as the unpartitioned run.
		basePlat := build(false)
		base, err := NewMapper(lib).Map(app, basePlat)
		if err != nil {
			t.Fatal(err)
		}
		if got := basePlat.Tile(base.Mapping.Tile[aID]).Name; got != want {
			t.Fatalf("bias-off placement differs with partitioning: %s vs %s", want, got)
		}
	}
}
