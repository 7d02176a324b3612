package core

import (
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// tinyFixture builds a 2-process chain with a fast/expensive ARM and a
// slow/cheap DSP implementation per process, on a 2×2 platform with one
// tile of each type plus pinned endpoints.
func tinyFixture(t *testing.T) (*model.Application, *model.Library, *arch.Platform) {
	t.Helper()
	app := model.NewApplication("tiny", model.QoS{PeriodNs: 4000})
	src := app.AddPinnedProcess("src", "SRC")
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	sink := app.AddPinnedProcess("sink", "SINK")
	app.Connect(src, a, 16, 4)
	app.Connect(a, b, 16, 4)
	app.Connect(b, sink, 16, 4)

	lib := model.NewLibrary()
	for _, name := range []string{"a", "b"} {
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeARM,
			WCET:            csdf.Vals(2, 100, 2),
			In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 16)},
			EnergyPerPeriod: 100, MemBytes: 1024,
		})
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeDSP,
			WCET:            csdf.Vals(4, 300, 4),
			In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 16)},
			EnergyPerPeriod: 40, MemBytes: 1024,
		})
	}

	plat := arch.NewMesh("tinyplat", 2, 2, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "ARM0", Type: arch.TypeARM, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "DSP0", Type: arch.TypeDSP, At: arch.Pt(1, 1),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 1),
		ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 800e6})
	return app, lib, plat
}

func TestMapPicksCheapImplementations(t *testing.T) {
	app, lib, plat := tinyFixture(t)
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Trace.Notes)
	}
	// Both processes fit on the cheap DSP (40 nJ vs 100 nJ on ARM);
	// utilisation 308/800 ×2 ≤ 1 allows co-location.
	for _, name := range []string{"a", "b"} {
		p := app.ProcessByName(name)
		if got := res.Mapping.Impl[p.ID].TileType; got != arch.TypeDSP {
			t.Errorf("%s on %s, want DSP (cheaper)", name, got)
		}
	}
}

func TestMapErrorsWithoutImplementations(t *testing.T) {
	app, _, plat := tinyFixture(t)
	empty := model.NewLibrary()
	if _, err := NewMapper(empty).Map(app, plat); err == nil {
		t.Error("expected error for empty library")
	}
}

func TestMapErrorsWithoutMatchingTileType(t *testing.T) {
	app, _, plat := tinyFixture(t)
	lib := model.NewLibrary()
	lib.Add(&model.Implementation{
		Process: "a", TileType: arch.TypeMontium, // no Montium on tinyplat
		WCET:            csdf.Vals(1, 1, 1),
		In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
		Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 16)},
		EnergyPerPeriod: 1, MemBytes: 1,
	})
	if _, err := NewMapper(lib).Map(app, plat); err == nil {
		t.Error("expected adequacy error")
	}
}

func TestMapErrorsOnUnknownPinnedTile(t *testing.T) {
	app, lib, plat := tinyFixture(t)
	app2 := model.NewApplication("bad", app.QoS)
	app2.AddPinnedProcess("src", "NOSUCH")
	p := app2.AddProcess("a")
	app2.Connect(app2.ProcessByName("src"), p, 16, 4)
	if _, err := NewMapper(lib).Map(app2, plat); err == nil {
		t.Error("expected pinned-tile error")
	}
	_ = plat
}

// bufferTrapFixture shrinks the DSP tile's memory so the cheap DSP
// implementations fit but their stream buffers do not. Step 1 prefers the
// DSP on energy; step 4's buffer reservation fails; the feedback loop must
// displace a process. The paper's §4.4 describes exactly this iterate-on-
// buffer-overflow behaviour.
func bufferTrapFixture(t *testing.T) (*model.Application, *model.Library, *arch.Platform) {
	t.Helper()
	app, lib, plat := tinyFixture(t)
	// Implementations occupy 1024 B each; both on DSP0 leaves zero bytes
	// for the buffers step 4 wants to charge.
	plat.TileByName("DSP0").MemBytes = 2048
	return app, lib, plat
}

func TestRefinementEscapesBufferTrap(t *testing.T) {
	app, lib, plat := bufferTrapFixture(t)
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("refinement failed to escape the buffer trap: %v", res.Trace.Notes)
	}
	if res.Refinements == 0 {
		t.Error("expected at least one refinement round")
	}
	// At least one process must have left the memory-starved DSP.
	onDSP := 0
	for _, name := range []string{"a", "b"} {
		p := app.ProcessByName(name)
		if plat.Tile(res.Mapping.Tile[p.ID]).Name == "DSP0" {
			onDSP++
		}
	}
	if onDSP == 2 {
		t.Error("both processes still on the memory-starved tile")
	}
}

func TestNoRefinementAblationStopsEarly(t *testing.T) {
	app, lib, plat := bufferTrapFixture(t)
	m := &Mapper{Lib: lib, Cfg: Config{NoRefinement: true}}
	res, err := m.Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("without refinement the first (infeasible) attempt must be returned")
	}
}

func TestStrategiesReachSameCostOnHiperlan2(t *testing.T) {
	first := mapHiperlan2(t, Config{Strategy: FirstImprovement})
	best := mapHiperlan2(t, Config{Strategy: BestImprovement})
	f := first.Trace.Step2[len(first.Trace.Step2)-1]
	b := best.Trace.Step2[len(best.Trace.Step2)-1]
	_ = f
	_ = b
	// Both strategies must find the cost-7 optimum of this tiny instance.
	if first.Energy.Total() != best.Energy.Total() {
		t.Errorf("first-improvement %.1f vs best-improvement %.1f",
			first.Energy.Total(), best.Energy.Total())
	}
}

func TestBestImprovementAcceptsMontiumSwapFirst(t *testing.T) {
	// Under best-improvement the first applied move is the Montium swap
	// (Δ −2), not the ARM swap the paper's table evaluates first — the
	// documented divergence between Table 2 and the literal "best
	// reassignment" reading (see EXPERIMENTS.md).
	res := mapHiperlan2(t, Config{Strategy: BestImprovement})
	s2 := res.Trace.Step2
	if len(s2) < 2 {
		t.Fatal("trace too short")
	}
	if s2[1].ProcA != "Inv.OFDM" || !s2[1].Accepted {
		t.Errorf("first best-improvement move = %+v, want accepted Montium swap", s2[1])
	}
}

func TestGreedyOnlyAblation(t *testing.T) {
	res := mapHiperlan2(t, Config{NoStep2: true})
	if len(res.Trace.Step2) != 0 {
		t.Error("NoStep2 still ran local search")
	}
	// The greedy assignment routes and verifies fine here, it is just
	// more expensive in communication.
	full := mapHiperlan2(t, Config{})
	if res.Feasible && full.Feasible && res.Energy.Communication < full.Energy.Communication {
		t.Errorf("greedy comm %.1f beat refined comm %.1f",
			res.Energy.Communication, full.Energy.Communication)
	}
}

func TestTrafficWeightedCostModel(t *testing.T) {
	res := mapHiperlan2(t, Config{CommCost: TrafficWeighted})
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Trace.Notes)
	}
	// The weighted model measures cost in nJ, not hops.
	if res.Trace.Step2[0].Cost == 11 {
		t.Error("traffic-weighted cost should not equal the hop count")
	}
}

func TestXYRouterPolicy(t *testing.T) {
	res := mapHiperlan2(t, Config{Router: XYOnly})
	if !res.Feasible {
		t.Fatalf("XY routing infeasible on the uncongested case: %v", res.Trace.Notes)
	}
}

func TestSyntheticChainsMapFeasibly(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 8, Seed: seed})
		plat := workload.SyntheticPlatform(4, 4, seed)
		res, err := NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Feasible {
			t.Errorf("seed %d infeasible: %v", seed, res.Trace.Notes)
		}
		if !res.Mapping.Adherent(applied(t, plat, res)) {
			t.Errorf("seed %d not adherent", seed)
		}
	}
}

func TestSyntheticShapesMapFeasibly(t *testing.T) {
	for _, shape := range []workload.Shape{workload.ShapeForkJoin, workload.ShapeLayered} {
		for seed := int64(0); seed < 4; seed++ {
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: shape, Processes: 6, Seed: seed})
			plat := workload.SyntheticPlatform(4, 4, seed+100)
			res, err := NewMapper(lib).Map(app, plat)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape, seed, err)
			}
			if !res.Feasible {
				t.Errorf("%s seed %d infeasible: %v", shape, seed, res.Trace.Notes)
			}
		}
	}
}

func TestMultiApplicationAdmission(t *testing.T) {
	// Admit HIPERLAN/2 twice... the second copy must fail (both Montiums
	// taken and the heavy kernels have no ARM headroom), demonstrating
	// run-time admission against current — not worst-case — state.
	mode := workload.Hiperlan2Modes[0]
	plat := workload.Hiperlan2Platform()
	app1 := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	m := NewMapper(lib)
	res1, err := m.Map(app1, plat)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plat, res1); err != nil {
		t.Fatal(err)
	}
	app2 := workload.Hiperlan2(mode)
	app2.Name = "hiperlan2-second"
	res2, err := m.Map(app2, plat)
	if err == nil && res2.Feasible {
		t.Error("second receiver admitted onto exhausted Montiums")
	}
	// After removing the first, the second fits.
	Remove(plat, res1)
	res3, err := m.Map(app2, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Feasible {
		t.Errorf("after release the receiver must fit again: %v", res3.Trace.Notes)
	}
}

func TestFinishAssignmentMatchesMapperOnSamePlacement(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	app := res.Mapping.App
	plat := workload.Hiperlan2Platform()
	var placement []PlacedProcess
	for _, p := range app.MappableProcesses() {
		placement = append(placement, PlacedProcess{
			Process: p.Name,
			Impl:    res.Mapping.Impl[p.ID],
			Tile:    plat.Tile(res.Mapping.Tile[p.ID]).Name,
		})
	}
	lib := workload.Hiperlan2Library(workload.Hiperlan2Modes[3])
	fin, err := FinishAssignment(lib, Config{}, app, plat, placement)
	if err != nil {
		t.Fatal(err)
	}
	if !fin.Feasible {
		t.Fatalf("finished assignment infeasible: %v", fin.Trace.Notes)
	}
	if fin.Energy.Total() != res.Energy.Total() {
		t.Errorf("energy %.2f differs from mapper's %.2f", fin.Energy.Total(), res.Energy.Total())
	}
}

func TestFinishAssignmentRejectsInadequate(t *testing.T) {
	app, lib, plat := tinyFixture(t)
	armImpl := lib.ForType("a", arch.TypeARM)
	_, err := FinishAssignment(lib, Config{}, app, plat, []PlacedProcess{
		{Process: "a", Impl: armImpl, Tile: "DSP0"}, // ARM impl on DSP tile
		{Process: "b", Impl: lib.ForType("b", arch.TypeDSP), Tile: "DSP0"},
	})
	if err == nil {
		t.Error("inadequate placement accepted")
	}
}

func TestFinishAssignmentRejectsIncomplete(t *testing.T) {
	app, lib, plat := tinyFixture(t)
	_, err := FinishAssignment(lib, Config{}, app, plat, []PlacedProcess{
		{Process: "a", Impl: lib.ForType("a", arch.TypeDSP), Tile: "DSP0"},
	})
	if err == nil {
		t.Error("incomplete placement accepted")
	}
}

func TestMapDeterministic(t *testing.T) {
	// The mapper must be bit-for-bit reproducible: same trace, same
	// energy, same routes on every run.
	var sigs []string
	for i := 0; i < 5; i++ {
		res := mapHiperlan2(t, Config{})
		sig := fmt.Sprintf("%v|%v|%d", res.Energy, res.Analysis.Period, len(res.Trace.Step2))
		for _, r := range res.Trace.Step3 {
			sig += fmt.Sprintf("|%v", r.Routers)
		}
		sigs = append(sigs, sig)
	}
	for _, s := range sigs[1:] {
		if s != sigs[0] {
			t.Fatalf("nondeterministic mapping:\n%s\nvs\n%s", sigs[0], s)
		}
	}
}

func TestResultReads(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	app := res.Mapping.App
	placed, routed, sized := 0, 0, 0
	for _, p := range app.Processes {
		tid, ok := res.TileOf(p.ID)
		if ok == p.Control {
			t.Errorf("TileOf(%q) ok=%v for a control=%v process", p.Name, ok, p.Control)
		}
		if ok {
			placed++
			if tid != res.Mapping.Tile[p.ID] {
				t.Errorf("TileOf(%q) = %d, mapping says %d", p.Name, tid, res.Mapping.Tile[p.ID])
			}
		}
	}
	for _, c := range app.Channels {
		if path, ok := res.RouteOf(c.ID); ok {
			routed++
			if want := res.Mapping.Route[c.ID]; path.Hops() != want.Hops() {
				t.Errorf("RouteOf(%q) has %d hops, mapping says %d", c.Name, path.Hops(), want.Hops())
			}
		}
		if buf, ok := res.BufferOf(c.ID); ok {
			sized++
			if buf != res.Mapping.Buffers[c.ID] {
				t.Errorf("BufferOf(%q) = %d, mapping says %d", c.Name, buf, res.Mapping.Buffers[c.ID])
			}
		}
	}
	if placed != len(res.Mapping.Tile) || routed != len(res.Mapping.Route) || sized != len(res.Mapping.Buffers) {
		t.Errorf("reads found %d tiles, %d routes, %d buffers; mapping holds %d, %d, %d",
			placed, routed, sized, len(res.Mapping.Tile), len(res.Mapping.Route), len(res.Mapping.Buffers))
	}
}
