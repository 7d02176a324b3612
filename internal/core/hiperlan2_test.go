package core

import (
	"math"
	"strings"
	"testing"

	"rtsm/internal/workload"
)

// mapHiperlan2 runs the paper's worked example (§4) end to end.
func mapHiperlan2(t *testing.T, cfg Config) *Result {
	t.Helper()
	mode := workload.Hiperlan2Modes[3] // QPSK3/4, b=16
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	m := &Mapper{Lib: lib, Cfg: cfg}
	res, err := m.Map(app, plat)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	return res
}

func TestHiperlan2Step1MatchesPaper(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	s1 := res.Trace.Step1
	if len(s1) != 4 {
		t.Fatalf("step 1 assigned %d processes, want 4", len(s1))
	}
	// §4.4: "the 'Inverse OFDM' process is the most desirable. Thus, it
	// is assigned to its preferred tile type, being a MONTIUM. Likewise,
	// the 'Remainder' process is assigned a MONTIUM. ... both remaining
	// processes only have ARM implementations and are thus chosen per
	// default."
	wantOrder := []struct{ proc, tile string }{
		{"Inv.OFDM", "MONTIUM1"},
		{"Rem.", "MONTIUM2"},
		{"Pfx.rem.", "ARM1"},
		{"Frq.off.", "ARM2"},
	}
	for i, w := range wantOrder {
		if s1[i].Process != w.proc || s1[i].Tile != w.tile {
			t.Errorf("step1[%d] = %s on %s, want %s on %s",
				i, s1[i].Process, s1[i].Tile, w.proc, w.tile)
		}
	}
	for _, r := range s1 {
		if !math.IsInf(r.Desirability, 1) {
			t.Errorf("%s: desirability %v, want forced (+Inf): ARM cannot sustain the heavy kernels and the Montiums hold one kernel each",
				r.Process, r.Desirability)
		}
	}
}

func TestHiperlan2Step2ReproducesTable2(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	s2 := res.Trace.Step2
	if len(s2) < 4 {
		t.Fatalf("step 2 trace too short: %d records", len(s2))
	}
	// Table 2's cost column: initial 11; swap ARMs 11 (reject); swap
	// Montiums 9 (keep); swap ARMs 7 (keep).
	wantCost := []float64{11, 11, 9, 7}
	wantAccept := []bool{false, false, true, true} // initial record is not a move
	for i, w := range wantCost {
		if s2[i].Cost != w {
			t.Errorf("step2[%d].Cost = %v, want %v", i, s2[i].Cost, w)
		}
		if i > 0 && s2[i].Accepted != wantAccept[i] {
			t.Errorf("step2[%d].Accepted = %v, want %v", i, s2[i].Accepted, wantAccept[i])
		}
	}
	// Row 1 swaps the ARM processes, row 2 the Montium processes, row 3
	// the ARM processes again.
	if s2[1].Kind != Swap || s2[1].ProcA != "Pfx.rem." || s2[1].ProcB != "Frq.off." {
		t.Errorf("iteration 1 = %v %s/%s, want ARM swap", s2[1].Kind, s2[1].ProcA, s2[1].ProcB)
	}
	if s2[2].Kind != Swap || s2[2].ProcA != "Inv.OFDM" || s2[2].ProcB != "Rem." {
		t.Errorf("iteration 2 = %v %s/%s, want Montium swap", s2[2].Kind, s2[2].ProcA, s2[2].ProcB)
	}
	if s2[3].Kind != Swap || s2[3].ProcA != "Pfx.rem." || s2[3].ProcB != "Frq.off." {
		t.Errorf("iteration 3 = %v %s/%s, want ARM swap", s2[3].Kind, s2[3].ProcA, s2[3].ProcB)
	}
	// Final assignment per Table 2's last kept row.
	app := res.Mapping.App
	plat := workload.Hiperlan2Platform()
	want := map[string]string{
		"Frq.off.": "ARM1", "Pfx.rem.": "ARM2",
		"Rem.": "MONTIUM1", "Inv.OFDM": "MONTIUM2",
	}
	for name, tile := range want {
		p := app.ProcessByName(name)
		got := plat.Tile(res.Mapping.Tile[p.ID]).Name
		if got != tile {
			t.Errorf("%s mapped to %s, want %s", name, got, tile)
		}
	}
}

func TestHiperlan2Feasible(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	if !res.Feasible {
		t.Fatalf("mapping infeasible; notes: %v", res.Trace.Notes)
	}
	if res.Analysis.Period > float64(workload.Hiperlan2SymbolPeriodNs) {
		t.Errorf("period %.0f ns exceeds the 4 µs symbol period", res.Analysis.Period)
	}
	plat := workload.Hiperlan2Platform()
	if !res.Mapping.Adequate(plat) {
		t.Error("mapping not adequate")
	}
	if !res.Mapping.Adherent(applied(t, plat, res)) {
		t.Error("mapping not adherent")
	}
	// Processing energy is the sum of the chosen Table 1 rows:
	// 32 + 33 + 143 + 76 (all Montium-preferred kernels end on their
	// preferred type except the two forced ARM kernels at 60 + 62).
	if got, want := res.Energy.Processing, 60.0+62+143+76; got != want {
		t.Errorf("processing energy = %v, want %v", got, want)
	}
}

func TestHiperlan2BuffersComputedAndCharged(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	app := res.Mapping.App
	for _, c := range app.StreamChannels() {
		if res.Mapping.Buffers[c.ID] <= 0 {
			t.Errorf("channel %q has no buffer", c.Name)
		}
	}
	// Buffers land in the consuming tiles' memory reservations.
	pfx := app.ProcessByName("Pfx.rem.")
	tile := applied(t, workload.Hiperlan2Platform(), res).Tile(res.Mapping.Tile[pfx.ID])
	im := res.Mapping.Impl[pfx.ID]
	if tile.ReservedMem <= im.MemBytes {
		t.Errorf("tile %q reserved %d B, want implementation (%d B) plus stream buffer",
			tile.Name, tile.ReservedMem, im.MemBytes)
	}
}

func TestHiperlan2RoutesAllChannels(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	app := res.Mapping.App
	for _, c := range app.StreamChannels() {
		path, ok := res.Mapping.Route[c.ID]
		if !ok {
			t.Errorf("channel %q unrouted", c.Name)
			continue
		}
		// Endpoints sit on distinct tiles here, so every channel crosses
		// the NoC.
		if path.Hops() == 0 {
			t.Errorf("channel %q has a zero-hop route", c.Name)
		}
	}
	// Step 3 routes in non-increasing throughput order: first routed
	// channel is A/D→Pfx (80 tokens/symbol).
	if len(res.Trace.Step3) == 0 || res.Trace.Step3[0].Channel != "A/D→Pfx.rem." {
		t.Errorf("heaviest channel not routed first: %+v", res.Trace.Step3)
	}
}

func TestHiperlan2AllModesFeasible(t *testing.T) {
	for _, mode := range workload.Hiperlan2Modes {
		app := workload.Hiperlan2(mode)
		lib := workload.Hiperlan2Library(mode)
		plat := workload.Hiperlan2Platform()
		m := NewMapper(lib)
		res, err := m.Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		if !res.Feasible {
			t.Errorf("%s: infeasible; notes %v", mode.Name, res.Trace.Notes)
		}
	}
}

func TestHiperlan2CallerPlatformUntouched(t *testing.T) {
	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	m := NewMapper(lib)
	if _, err := m.Map(app, plat); err != nil {
		t.Fatal(err)
	}
	for _, tile := range plat.Tiles {
		if tile.ReservedMem != 0 || tile.ReservedUtil != 0 || tile.Occupants != 0 {
			t.Errorf("tile %q mutated by Map", tile.Name)
		}
	}
	for _, l := range plat.Links {
		if l.ReservedBps != 0 {
			t.Errorf("link %d mutated by Map", l.ID)
		}
	}
}

func TestHiperlan2ApplyRemove(t *testing.T) {
	mode := workload.Hiperlan2Modes[2]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	m := NewMapper(lib)
	res, err := m.Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plat, res); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	occupied := 0
	for _, tile := range plat.Tiles {
		if tile.Occupants > 0 {
			occupied++
		}
	}
	if occupied != 4 {
		t.Errorf("%d tiles occupied after Apply, want 4", occupied)
	}
	Remove(plat, res)
	for _, tile := range plat.Tiles {
		if tile.ReservedMem != 0 || tile.Occupants != 0 || tile.ReservedUtil > 1e-12 {
			t.Errorf("tile %q not clean after Remove: mem=%d occ=%d util=%g",
				tile.Name, tile.ReservedMem, tile.Occupants, tile.ReservedUtil)
		}
	}
	for _, l := range plat.Links {
		if l.ReservedBps != 0 {
			t.Errorf("link %d not released", l.ID)
		}
	}
}

func TestHiperlan2RenderTable2(t *testing.T) {
	res := mapHiperlan2(t, Config{})
	table := res.Trace.RenderStep2Table([]string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2"})
	if table == "" {
		t.Fatal("empty table")
	}
	// The header and the paper's initial row must be present.
	for _, want := range []string{"ARM1", "Initial (greedy) assignment", "No improvement, revert"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
