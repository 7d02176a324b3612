package baseline

import (
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/workload"
)

func TestBinPackHiperlan2(t *testing.T) {
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := BinPack(lib, core.Config{}, app, plat, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.Adequate(plat) {
		t.Error("bin-pack mapping not adequate")
	}
	// Heterogeneity-blind packing must not beat the informed heuristic.
	m := core.NewMapper(lib)
	heur, err := m.Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Feasible && res.Feasible && res.Energy.Total() < heur.Energy.Total()-1e-9 {
		t.Errorf("bin packing (%.1f nJ) beat the heuristic (%.1f nJ)",
			res.Energy.Total(), heur.Energy.Total())
	}
}

func TestRandomHiperlan2(t *testing.T) {
	mode := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := Random(lib, core.Config{}, app, plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapping.Adequate(plat) {
		t.Error("random mapping not adequate")
	}
	// Determinism under a fixed seed.
	res2, err := Random(lib, core.Config{}, app, plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() != res2.Energy.Total() {
		t.Error("random mapper not deterministic under fixed seed")
	}
}

func TestRandomSyntheticMany(t *testing.T) {
	app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 6, Seed: 11})
	plat := workload.SyntheticPlatform(4, 4, 11)
	for seed := int64(0); seed < 5; seed++ {
		if _, err := Random(lib, core.Config{}, app, plat, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDesignTimeNeverCheaperThanRunTime(t *testing.T) {
	// E7's claim in miniature: for each actual mode, the run-time mapping
	// is at most as expensive as the frozen worst-case mapping.
	worstMode := workload.Hiperlan2Modes[6] // QAM64
	worstApp := workload.Hiperlan2(worstMode)
	worstLib := workload.Hiperlan2Library(worstMode)
	plat := workload.Hiperlan2Platform()
	for _, mode := range workload.Hiperlan2Modes[:3] {
		app := workload.Hiperlan2(mode)
		lib := workload.Hiperlan2Library(mode)
		static, err := DesignTime(worstLib, lib, core.Config{}, worstApp, app, plat, plat)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		dynamic, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		if !dynamic.Feasible {
			t.Fatalf("%s: run-time mapping infeasible", mode.Name)
		}
		if dynamic.Energy.Total() > static.Energy.Total()+1e-9 {
			t.Errorf("%s: run-time %.1f nJ > design-time %.1f nJ",
				mode.Name, dynamic.Energy.Total(), static.Energy.Total())
		}
	}
}

func TestBinPackClusterRespectsMontiumOccupancy(t *testing.T) {
	// Clusters of two processes cannot land on a single-kernel Montium.
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := BinPack(lib, core.Config{}, app, plat, 3)
	if err != nil {
		t.Fatal(err)
	}
	perTile := make(map[string]int)
	for _, p := range app.MappableProcesses() {
		tile := plat.Tile(res.Mapping.Tile[p.ID])
		perTile[tile.Name]++
		if tile.MaxOccupants > 0 && perTile[tile.Name] > tile.MaxOccupants {
			t.Errorf("tile %s over-occupied", tile.Name)
		}
	}
}
