package core

import (
	"math"
	"strings"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

func TestStep1RecordString(t *testing.T) {
	forced := Step1Record{Process: "Inv.OFDM", Desirability: math.Inf(1), Impl: "Inv.OFDM@MONTIUM", Tile: "MONTIUM1"}
	if s := forced.String(); !strings.Contains(s, "forced") {
		t.Errorf("forced record renders as %q", s)
	}
	scored := Step1Record{Process: "Pfx.rem.", Desirability: 28, Impl: "Pfx.rem.@ARM", Tile: "ARM1"}
	if s := scored.String(); !strings.Contains(s, "28.0") {
		t.Errorf("scored record renders as %q", s)
	}
}

func TestStep2RecordString(t *testing.T) {
	swap := Step2Record{Iteration: 2, Kind: Swap, ProcA: "a", ProcB: "b", Cost: 9, Remark: "Improvement, keep"}
	if s := swap.String(); !strings.Contains(s, "a↔b") || !strings.Contains(s, "9.0") {
		t.Errorf("swap renders as %q", s)
	}
	move := Step2Record{Iteration: 1, Kind: Move, ProcA: "a", TileA: "T0", TileB: "T1", Cost: 5}
	if s := move.String(); !strings.Contains(s, "a: T0→T1") {
		t.Errorf("move renders as %q", s)
	}
	init := Step2Record{Kind: Initial, Cost: 11}
	if s := init.String(); !strings.Contains(s, "greedy") {
		t.Errorf("initial renders as %q", s)
	}
}

func TestMoveKindString(t *testing.T) {
	for kind, want := range map[MoveKind]string{Initial: "initial", Move: "move", Swap: "swap", MoveKind(99): "?"} {
		if got := kind.String(); got != want {
			t.Errorf("%d renders as %q, want %q", kind, got, want)
		}
	}
}

func TestRenderStep2TableColumns(t *testing.T) {
	tr := &Trace{Step2: []Step2Record{
		{Kind: Initial, Cost: 11, Remark: "Initial (greedy) assignment",
			Procs: []string{"a", "b"}, Tiles: []string{"T0", "T1"}},
		{Iteration: 1, Kind: Swap, ProcA: "a", ProcB: "b", TileA: "T0", TileB: "T1",
			Cost: 9, Accepted: true, Remark: "Improvement, keep"},
	}}
	out := tr.RenderStep2Table([]string{"T0", "T1", "T2"})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), out)
	}
	// Empty columns render as the placeholder dot.
	if !strings.Contains(lines[1], "·") {
		t.Errorf("missing placeholder in %q", lines[1])
	}
	if !strings.HasPrefix(lines[1], "-") {
		t.Errorf("initial row should have no iteration number: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "1") {
		t.Errorf("iteration row mislabelled: %q", lines[2])
	}
}

func TestFeedbackKindStrings(t *testing.T) {
	kinds := []feedbackKind{fbNoImplementation, fbNoTile, fbRouteFailure, fbThroughput, fbLatency, fbBufferOverflow, feedbackKind(42)}
	want := []string{"no-implementation", "no-tile", "route-failure", "throughput-violation", "latency-violation", "buffer-overflow", "?"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d renders as %q, want %q", i, k.String(), want[i])
		}
	}
}

func TestTabuDeduplicates(t *testing.T) {
	tb := newTabu()
	fb := &feedback{kind: fbThroughput, process: 1, banImplType: "ARM", detail: "x"}
	if !tb.apply(fb) {
		t.Fatal("first application rejected")
	}
	if tb.apply(fb) {
		t.Error("duplicate constraint accepted: refinement would loop")
	}
	if !tb.bansImpl(1, "ARM") {
		t.Error("constraint not queryable")
	}
	if tb.bansImpl(2, "ARM") || tb.bansImpl(1, "DSP") {
		t.Error("constraint leaks to other processes/types")
	}

	tile := &feedback{kind: fbRouteFailure, process: 3, banTile: 7, useBanTile: true, detail: "y"}
	if !tb.apply(tile) {
		t.Fatal("tile ban rejected")
	}
	if !tb.bansTile(3, 7) || tb.bansTile(3, 8) {
		t.Error("tile ban wrong")
	}
	// Feedback without any actionable constraint is a dead end.
	if tb.apply(&feedback{kind: fbNoImplementation, process: 4, detail: "z"}) {
		t.Error("unactionable feedback accepted")
	}
}

func TestLatencyBoundInfeasible(t *testing.T) {
	// The HIPERLAN/2 pipeline's end-to-end latency is several symbol
	// periods; a 1 ns bound is unachievable and must be reported as
	// infeasible with a latency note, after the refinement loop exhausts
	// its displacement options.
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	app.QoS.LatencyNs = 1
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("1 ns latency bound reported feasible")
	}
	found := false
	for _, n := range res.Trace.Notes {
		if strings.Contains(n, "latency") {
			found = true
		}
	}
	if !found {
		t.Errorf("no latency note in %v", res.Trace.Notes)
	}
}

func TestLatencyBoundGenerous(t *testing.T) {
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	app.QoS.LatencyNs = 1_000_000 // 1 ms, far above the ~10 µs pipeline
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("generous latency bound infeasible: %v", res.Trace.Notes)
	}
	if res.Analysis.Latency <= 0 || res.Analysis.Latency > app.QoS.LatencyNs {
		t.Errorf("latency %d outside (0, %d]", res.Analysis.Latency, app.QoS.LatencyNs)
	}
}

func TestAdequateDetectsMismatch(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	app := res.Mapping.App
	pfx := app.ProcessByName("Pfx.rem.")
	// Corrupt the mapping: claim the ARM implementation runs on a
	// Montium tile.
	plat := workload.Hiperlan2Platform()
	mont := plat.TileByName("MONTIUM1")
	broken := &Mapping{
		App:  app,
		Impl: map[model.ProcessID]*model.Implementation{pfx.ID: res.Mapping.Impl[pfx.ID]},
		Tile: map[model.ProcessID]arch.TileID{pfx.ID: mont.ID},
	}
	if broken.Adequate(plat) {
		t.Error("inadequate mapping reported adequate")
	}
}
