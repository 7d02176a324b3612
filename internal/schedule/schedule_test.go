package schedule

import (
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

func TestScheduleHiperlan2Trivial(t *testing.T) {
	// One process per tile: no orders needed, period unchanged.
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Build(app, plat, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Tiles) != 0 {
		t.Errorf("unexpected multi-actor tiles: %v", sched.Tiles)
	}
	if !sched.Feasible || sched.PeriodNs > 4000 {
		t.Errorf("trivial schedule infeasible: period %.0f", sched.PeriodNs)
	}
}

func TestScheduleCoLocatedProcesses(t *testing.T) {
	// A chain mapped onto a tiny platform co-locates processes; the SAS
	// must order them stream-wise, and verification with the order
	// enforced must still meet the period (the processes are light).
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 6, Seed: 21, MaxUtil: 0.12})
	plat := workload.SyntheticPlatform(2, 2, 21)
	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Skipf("instance unmappable: %v", err)
	}
	if !res.Feasible {
		t.Skip("spatial mapping infeasible")
	}
	sched, err := Build(app, plat, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Tiles) == 0 {
		t.Skip("no co-location on this seed")
	}
	// Each schedule lists its actors in stream order: a producer that
	// shares a tile with its consumer must appear first.
	for _, ts := range sched.Tiles {
		pos := make(map[string]int)
		for i, e := range ts.Entries {
			pos[e.Actor] = i
			if e.Firings <= 0 {
				t.Errorf("%s: non-positive firing count", ts.Tile)
			}
		}
		for _, c := range app.StreamChannels() {
			src := app.Process(c.Src).Name
			dst := app.Process(c.Dst).Name
			si, sok := pos[src]
			di, dok := pos[dst]
			if sok && dok && si > di {
				t.Errorf("%s: consumer %s scheduled before producer %s", ts.Tile, dst, src)
			}
		}
	}
	// Strict SAS can legitimately be slower than the unordered analysis:
	// when a tile hosts actors from distant pipeline stages, the cyclic
	// order serialises a full stream round trip per iteration. The
	// verdict must reflect the enforced order, and the measured period
	// can only be at or above the unordered one.
	if sched.PeriodNs < res.Analysis.Period*0.98 {
		t.Errorf("ordered period %.0f below unordered %.0f", sched.PeriodNs, res.Analysis.Period)
	}
	if sched.Feasible && sched.PeriodNs > float64(app.QoS.PeriodNs) {
		t.Errorf("feasible verdict contradicts period %.0f", sched.PeriodNs)
	}
}

func TestScheduleAdjacentCoLocationFeasible(t *testing.T) {
	// Two adjacent pipeline stages sharing a tile: the SAS [a×1, b×1] is
	// the natural order and must sustain the period (their combined
	// utilisation is low and no round trip separates them).
	app := model.NewApplication("adj", model.QoS{PeriodNs: 10_000})
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
			Process: name, TileType: arch.TypeDSP,
			WCET:            csdf.Vals(2, 200, 2),
			In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 16)},
			EnergyPerPeriod: 40, MemBytes: 1024,
		})
	}
	plat := arch.NewMesh("adjplat", 2, 2, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "DSP0", Type: arch.TypeDSP, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SRC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "SINK", Type: arch.TypeSink, At: arch.Pt(0, 1),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})

	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("spatial mapping infeasible: %v", res.Trace.Notes)
	}
	sched, err := Build(app, plat, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Tiles) != 1 {
		t.Fatalf("expected one shared tile, got %v", sched.Tiles)
	}
	entries := sched.Tiles[0].Entries
	if len(entries) != 2 || entries[0].Actor != "a" || entries[1].Actor != "b" {
		t.Errorf("order = %v, want a before b", entries)
	}
	if !sched.Feasible {
		t.Errorf("adjacent SAS infeasible: period %.0f > %d", sched.PeriodNs, app.QoS.PeriodNs)
	}
}

func TestScheduleString(t *testing.T) {
	s := &Schedule{
		PeriodNs: 4000,
		Feasible: true,
		Tiles: []TileSchedule{{
			Tile:    "DSP0",
			Entries: []Entry{{Actor: "a", Firings: 1}, {Actor: "b", Firings: 8}},
		}},
	}
	out := s.String()
	for _, want := range []string{"period 4000", "DSP0", "a×1", "b×8"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleRejectsIncompleteResult(t *testing.T) {
	app := workload.Hiperlan2(workload.Hiperlan2Modes[0])
	if _, err := Build(app, workload.Hiperlan2Platform(), &core.Result{}); err == nil {
		t.Error("expected error for result without mapped graph")
	}
}
