package core

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// lineFixture builds src → a → sink on a 3×1 mesh where DSP tiles can be
// arranged to exercise specific step-2/step-3 paths.
func lineApp(t *testing.T, tokens int64) (*model.Application, *model.Library) {
	t.Helper()
	app := model.NewApplication("line", model.QoS{PeriodNs: 4000})
	src := app.AddPinnedProcess("src", "SRC")
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	sink := app.AddPinnedProcess("sink", "SINK")
	app.Connect(src, a, tokens, 4)
	app.Connect(a, b, tokens, 4)
	app.Connect(b, sink, tokens, 4)
	lib := model.NewLibrary()
	for _, name := range []string{"a", "b"} {
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeDSP,
			WCET:            csdf.Vals(2, 480, 2), // util 0.6 at 200 MHz / 4 µs
			In:              map[string]csdf.Pattern{"in": csdf.Vals(tokens, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, tokens)},
			EnergyPerPeriod: 40, MemBytes: 1024,
		})
	}
	return app, lib
}

func TestStep2MoveToFreeTileAccepted(t *testing.T) {
	app, lib := lineApp(t, 16)
	// Declaration order: DSP_far first (first-fit lands a there), then
	// DSP_near, then DSP_at_src. Utilisation 0.6 forbids co-location, so
	// b takes DSP_near; the improving move for a is the free DSP_at_src.
	plat := arch.NewMesh("moveplat", 3, 1, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "DSP_far", Type: arch.TypeDSP, At: arch.Pt(2, 0),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "DSP_near", Type: arch.TypeDSP, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "DSP_at_src", Type: arch.TypeDSP, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})

	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	sawMove := false
	for _, r := range res.Trace.Step2 {
		if r.Kind == Move && r.Accepted {
			sawMove = true
		}
	}
	if !sawMove {
		t.Errorf("no accepted move in trace: %v", res.Trace.Step2)
	}
	// a ends at the source router (the accepted move); b cannot join it
	// (utilisation 0.6 each forbids co-location) and settles adjacent.
	a := app.ProcessByName("a")
	if pos := plat.Pos(res.Mapping.Tile[a.ID]); pos != arch.Pt(0, 0) {
		t.Errorf("a ended at %v, want the source router", pos)
	}
	b := app.ProcessByName("b")
	if pos := plat.Pos(res.Mapping.Tile[b.ID]); pos != arch.Pt(1, 0) {
		t.Errorf("b ended at %v, want adjacent to the chain", pos)
	}
}

func TestRouteFailureReportedWhenLinksTooSmall(t *testing.T) {
	app, lib := lineApp(t, 16)
	// 16 tokens × 4 B / 4 µs = 16 MB/s per channel; links carry only
	// 1 MB/s, so no channel can ever be routed. The result must be
	// infeasible with a route-failure note, not an error.
	plat := arch.NewMesh("narrow", 3, 1, 1_000_000)
	plat.AttachTile(arch.TileSpec{Name: "DSP0", Type: arch.TypeDSP, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 32 << 10})
	plat.AttachTile(arch.TileSpec{Name: "DSP1", Type: arch.TypeDSP, At: arch.Pt(2, 0),
		ClockHz: 200e6, MemBytes: 32 << 10})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10})
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("unroutable application reported feasible")
	}
}

func TestThroughputInfeasibleStreamRate(t *testing.T) {
	// 400 tokens per 4 µs period: each router actor needs 400 × 20 ns =
	// 8 µs per period, so no placement can meet the period once the
	// stream crosses the NoC. The refinement loop must terminate and
	// report infeasibility with a throughput note.
	app, lib := lineApp(t, 400)
	plat := arch.NewMesh("hot", 3, 1, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "DSP0", Type: arch.TypeDSP, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 64 << 10})
	plat.AttachTile(arch.TileSpec{Name: "DSP1", Type: arch.TypeDSP, At: arch.Pt(2, 0),
		ClockHz: 200e6, MemBytes: 64 << 10})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 64 << 10})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 64 << 10})
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("stream beyond NoC forwarding rate reported feasible (period %.0f)", res.Analysis.Period)
	}
	// The refinement loop churns through displacements before giving up;
	// whichever attempt is returned, any measured period must violate the
	// constraint.
	if res.Analysis != nil && res.Analysis.Period <= float64(app.QoS.PeriodNs) {
		t.Errorf("infeasible verdict but period %.0f meets the constraint", res.Analysis.Period)
	}
}

func TestStep1FeedbackDeadEndWithoutAlternative(t *testing.T) {
	// Two Montium-only processes, one single-kernel Montium: the starved
	// process's occupant has no alternative type, so step-1 feedback is a
	// dead end and the mapper reports the last attempt infeasible.
	app := model.NewApplication("dead", model.QoS{PeriodNs: 4000})
	src := app.AddPinnedProcess("src", "SRC")
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	sink := app.AddPinnedProcess("sink", "SINK")
	app.Connect(src, a, 8, 4)
	app.Connect(a, b, 8, 4)
	app.Connect(b, sink, 8, 4)
	lib := model.NewLibrary()
	for _, name := range []string{"a", "b"} {
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeMontium,
			WCET:            csdf.Vals(1, 10, 1),
			In:              map[string]csdf.Pattern{"in": csdf.Vals(8, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 8)},
			EnergyPerPeriod: 10, MemBytes: 128,
		})
	}
	plat := arch.NewMesh("one-mont", 2, 1, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "M0", Type: arch.TypeMontium, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 16 << 10, MaxOccupants: 1})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10})
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("two kernels on one single-kernel Montium reported feasible")
	}
}

func TestConfigDefaults(t *testing.T) {
	if maxStep2Iterations != 10000 || maxRefinements != 8 || maxRepairRounds != 3 {
		t.Errorf("limits changed: %d, %d, %d", maxStep2Iterations, maxRefinements, maxRepairRounds)
	}
	params := Config{}.energyParams()
	if params.HopPerByte <= 0 {
		t.Error("default energy params missing")
	}
}

func TestAdherentDetectsOvercommit(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	work := applied(t, workload.Hiperlan2Platform(), res)
	if !res.Mapping.Adherent(work) {
		t.Fatal("baseline not adherent")
	}
	tile := work.TileByName("ARM1")
	tile.ReservedUtil = 1.5
	if res.Mapping.Adherent(work) {
		t.Error("utilisation overcommit undetected")
	}
	tile.ReservedUtil = 0.5
	work.Links[0].ReservedBps = work.Links[0].CapBps + 1
	if res.Mapping.Adherent(work) {
		t.Error("link overcommit undetected")
	}
	work.Links[0].ReservedBps = 0
	tile.ReservedInBps = tile.NICapBps + 1
	if res.Mapping.Adherent(work) {
		t.Error("NI overcommit undetected")
	}
}
