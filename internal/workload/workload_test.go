package workload

import (
	"bytes"
	"testing"

	"rtsm/internal/arch"
)

func TestHiperlan2Application(t *testing.T) {
	app := Hiperlan2(Hiperlan2Modes[0])
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(app.MappableProcesses()); got != 4 {
		t.Errorf("mappable processes = %d, want 4", got)
	}
	// Figure 1 edge token counts.
	want := map[string]int64{
		"A/D→Pfx.rem.":      80,
		"Pfx.rem.→Frq.off.": 64,
		"Frq.off.→Inv.OFDM": 64,
		"Inv.OFDM→Rem.":     52,
		"Rem.→Sink":         2, // BPSK1/2: b = 2
	}
	stream := app.StreamChannels()
	if len(stream) != 5 {
		t.Fatalf("stream channels = %d, want 5", len(stream))
	}
	for _, c := range stream {
		if c.TokensPerPeriod != want[c.Name] {
			t.Errorf("%s carries %d tokens, want %d", c.Name, c.TokensPerPeriod, want[c.Name])
		}
	}
	if app.QoS.PeriodNs != 4000 {
		t.Errorf("period = %d ns, want 4000 (one symbol per 4 µs)", app.QoS.PeriodNs)
	}
}

func TestHiperlan2ModesSpanPaperRange(t *testing.T) {
	if len(Hiperlan2Modes) != 7 {
		t.Fatalf("modes = %d, want 7 (the standard defines seven)", len(Hiperlan2Modes))
	}
	if Hiperlan2Modes[0].DemapBits != 2 {
		t.Errorf("minimum b = %d, want 2 (BPSK)", Hiperlan2Modes[0].DemapBits)
	}
	if Hiperlan2Modes[6].DemapBits != 64 {
		t.Errorf("maximum b = %d, want 64 (QAM64)", Hiperlan2Modes[6].DemapBits)
	}
}

func TestHiperlan2LibraryMatchesTable1(t *testing.T) {
	lib := Hiperlan2Library(Hiperlan2Modes[3])
	// Every process has exactly an ARM and a Montium implementation.
	for _, proc := range []string{"Pfx.rem.", "Frq.off.", "Inv.OFDM", "Rem."} {
		ims := lib.For(proc)
		if len(ims) != 2 {
			t.Fatalf("%s has %d implementations, want 2", proc, len(ims))
		}
		if lib.ForType(proc, arch.TypeARM) == nil || lib.ForType(proc, arch.TypeMontium) == nil {
			t.Errorf("%s missing a tile type", proc)
		}
	}
	// Table 1 energies.
	wantE := map[string][2]float64{
		"Pfx.rem.": {60, 32}, "Frq.off.": {62, 33},
		"Inv.OFDM": {275, 143}, "Rem.": {140, 76},
	}
	for proc, w := range wantE {
		if got := lib.ForType(proc, arch.TypeARM).EnergyPerPeriod; got != w[0] {
			t.Errorf("%s ARM energy = %v, want %v", proc, got, w[0])
		}
		if got := lib.ForType(proc, arch.TypeMontium).EnergyPerPeriod; got != w[1] {
			t.Errorf("%s Montium energy = %v, want %v", proc, got, w[1])
		}
	}
	// Table 1 WCET shapes: the Montium inverse OFDM is ⟨1^64, 170, 1^52⟩.
	ofdm := lib.ForType("Inv.OFDM", arch.TypeMontium)
	if got := ofdm.WCET.String(); got != "⟨1^64, 170, 1^52⟩" {
		t.Errorf("Inv.OFDM Montium WCET = %s", got)
	}
	if got := ofdm.WCET.Sum(); got != 286 {
		t.Errorf("Inv.OFDM Montium cycles = %d, want 286", got)
	}
	// The ARM prefix removal reads 80 and writes 64 tokens per cycle.
	pfx := lib.ForType("Pfx.rem.", arch.TypeARM)
	if got := pfx.In["in"].Sum(); got != 80 {
		t.Errorf("Pfx ARM consumes %d per cycle, want 80", got)
	}
	if got := pfx.Out["out"].Sum(); got != 64 {
		t.Errorf("Pfx ARM produces %d per cycle, want 64", got)
	}
	// Mode dependence: the Montium remainder's compute phase is 73−b.
	for _, mode := range Hiperlan2Modes {
		rem := Hiperlan2Library(mode).ForType("Rem.", arch.TypeMontium)
		if err := rem.Validate(); err != nil {
			t.Errorf("%s: %v", mode.Name, err)
		}
		if got := rem.WCET[52]; got != 73-mode.DemapBits {
			t.Errorf("%s: compute phase = %d, want %d", mode.Name, got, 73-mode.DemapBits)
		}
	}
}

func TestHiperlan2PlatformMatchesFigure2(t *testing.T) {
	p := Hiperlan2Platform()
	if p.Width != 3 || p.Height != 3 {
		t.Fatalf("mesh = %d×%d, want 3×3", p.Width, p.Height)
	}
	for _, name := range []string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2", "A/D", "Sink"} {
		if p.TileByName(name) == nil {
			t.Errorf("missing tile %q", name)
		}
	}
	// Montiums hold one kernel at a time.
	for _, id := range p.TilesOfType(arch.TypeMontium) {
		if m := p.Tile(id); m.MaxOccupants != 1 {
			t.Errorf("%s MaxOccupants = %d, want 1", m.Name, m.MaxOccupants)
		}
	}
	// Declaration order drives first-fit: ARMs before Montiums, 1 before 2.
	names := []string{p.Tiles[0].Name, p.Tiles[1].Name, p.Tiles[2].Name, p.Tiles[3].Name}
	want := []string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("tile order %v, want %v", names, want)
		}
	}
}

func TestSyntheticShapes(t *testing.T) {
	for _, shape := range []Shape{ShapeChain, ShapeForkJoin, ShapeLayered} {
		app, lib := Synthetic(SynthOptions{Shape: shape, Processes: 8, Seed: 42})
		if err := app.Validate(); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if got := len(app.MappableProcesses()); got != 8 {
			t.Errorf("%s: mappable = %d, want 8", shape, got)
		}
		for _, p := range app.MappableProcesses() {
			ims := lib.For(p.Name)
			if len(ims) == 0 {
				t.Errorf("%s: %s has no implementations", shape, p.Name)
			}
			for _, im := range ims {
				if err := im.Validate(); err != nil {
					t.Errorf("%s: %v", shape, err)
				}
				if _, err := im.CyclesPerPeriod(app, p); err != nil {
					t.Errorf("%s: %s: %v", shape, im, err)
				}
			}
		}
		// Every interior process must have at least one input and one
		// output so the stream flows end to end.
		for _, p := range app.MappableProcesses() {
			var in, out int
			for _, c := range app.ChannelsOf(p.ID) {
				if c.Dst == p.ID {
					in++
				} else {
					out++
				}
			}
			if in == 0 || out == 0 {
				t.Errorf("%s: %s has in=%d out=%d", shape, p.Name, in, out)
			}
		}
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a1, l1 := Synthetic(SynthOptions{Shape: ShapeLayered, Processes: 10, Seed: 7})
	a2, l2 := Synthetic(SynthOptions{Shape: ShapeLayered, Processes: 10, Seed: 7})
	if len(a1.Channels) != len(a2.Channels) {
		t.Fatal("same seed, different channel count")
	}
	for i := range a1.Channels {
		if a1.Channels[i].TokensPerPeriod != a2.Channels[i].TokensPerPeriod {
			t.Fatal("same seed, different token counts")
		}
	}
	for _, p := range a1.MappableProcesses() {
		if len(l1.For(p.Name)) != len(l2.For(p.Name)) {
			t.Fatal("same seed, different library")
		}
	}
	a3, _ := Synthetic(SynthOptions{Shape: ShapeLayered, Processes: 10, Seed: 8})
	same := true
	for i := range a1.Channels {
		if i >= len(a3.Channels) || a1.Channels[i].TokensPerPeriod != a3.Channels[i].TokensPerPeriod {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical token streams")
	}
}

func TestSyntheticPlatform(t *testing.T) {
	p := SyntheticPlatform(4, 3, 1)
	if got := len(p.Tiles); got != 14 { // 12 processing + SRC0 + SINK0
		t.Fatalf("tiles = %d, want 14", got)
	}
	if p.TileByName("SRC0") == nil || p.TileByName("SINK0") == nil {
		t.Fatal("missing pinned endpoints")
	}
	for _, tile := range p.Tiles {
		if tile.Type == arch.TypeMontium && tile.MaxOccupants != 1 {
			t.Errorf("%s: Montium must hold one kernel", tile.Name)
		}
	}
}

func TestSyntheticUtilisationBounded(t *testing.T) {
	// Property: generated implementations stay below the configured
	// utilisation bound on the 200 MHz reference tile, so instances are
	// feasible by construction.
	app, lib := Synthetic(SynthOptions{Shape: ShapeChain, Processes: 12, Seed: 99, MaxUtil: 0.3})
	budget := app.QoS.PeriodNs * 200 / 1000
	for _, p := range app.MappableProcesses() {
		for _, im := range lib.For(p.Name) {
			cyc, err := im.CyclesPerPeriod(app, p)
			if err != nil {
				t.Fatal(err)
			}
			util := float64(cyc) / float64(budget)
			if util > 0.5 { // compute bound 0.3 plus I/O phases
				t.Errorf("%s: utilisation %.2f too high", im, util)
			}
		}
	}
}

func TestBundleRoundTrip(t *testing.T) {
	mode := Hiperlan2Modes[2]
	app := Hiperlan2(mode)
	lib := Hiperlan2Library(mode)
	plat := Hiperlan2Platform()
	var buf bytes.Buffer
	if err := NewBundle(app, lib, plat).Write(&buf); err != nil {
		t.Fatal(err)
	}
	app2, lib2, plat2, err := ReadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if app2.Name != app.Name || len(app2.Channels) != len(app.Channels) {
		t.Error("application lost in round trip")
	}
	for _, p := range app.MappableProcesses() {
		if len(lib2.For(p.Name)) != len(lib.For(p.Name)) {
			t.Errorf("library entries for %q lost", p.Name)
		}
	}
	if len(plat2.Tiles) != len(plat.Tiles) || plat2.Width != plat.Width {
		t.Error("platform lost in round trip")
	}
	if plat2.TileByName("MONTIUM1").MaxOccupants != 1 {
		t.Error("occupancy limit lost in round trip")
	}
}

func TestSpecOfRejectsBadBuild(t *testing.T) {
	s := PlatformSpec{Name: "bad", Width: 0, Height: 2, LinkCapBps: 1}
	if _, err := s.Build(); err == nil {
		t.Error("zero-width platform accepted")
	}
	s = PlatformSpec{Name: "bad2", Width: 2, Height: 2, LinkCapBps: 1,
		Tiles: []arch.TileSpec{{Name: "t", Type: arch.TypeARM, At: arch.Pt(5, 5)}}}
	if _, err := s.Build(); err == nil {
		t.Error("out-of-mesh tile accepted")
	}
}
