package gap

import (
	"errors"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/energy"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

func solver(lib *model.Library) *Solver {
	return &Solver{Lib: lib, Params: energy.DefaultParams()}
}

func TestOptimalHiperlan2(t *testing.T) {
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	asg, err := solver(lib).Optimal(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy kernels must land on the Montiums (the ARM versions do
	// not fit the cycle budget at all), the light ones on ARMs.
	for name, wantType := range map[string]arch.TileType{
		"Inv.OFDM": arch.TypeMontium,
		"Rem.":     arch.TypeMontium,
		"Pfx.rem.": arch.TypeARM,
		"Frq.off.": arch.TypeARM,
	} {
		p := app.ProcessByName(name)
		if got := asg.Impl[p.ID].TileType; got != wantType {
			t.Errorf("%s on %s, want %s", name, got, wantType)
		}
	}
	if asg.Energy <= 0 {
		t.Error("non-positive optimal energy")
	}
	if asg.Nodes <= 0 {
		t.Error("no nodes expanded")
	}
}

func TestOptimalIsLowerBoundForHeuristicObjective(t *testing.T) {
	// Property: on small synthetic instances the exact optimum never
	// exceeds the cost of any feasible alternative (here: every single
	// swap of the optimum remains ≥ optimal).
	app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 4, Seed: 5})
	plat := workload.SyntheticPlatform(3, 3, 5)
	s := solver(lib)
	asg, err := s.Optimal(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Evaluate(app, plat, asg.Impl, asg.Tile); got != asg.Energy {
		t.Errorf("Evaluate(optimal) = %v, want %v (objective must round-trip)", got, asg.Energy)
	}
	// Perturb: move each process to every other tile of its type and
	// confirm no cheaper *adherent* evaluation exists.
	for _, p := range app.MappableProcesses() {
		im := asg.Impl[p.ID]
		for _, tile := range plat.TilesOfType(im.TileType) {
			perturbed := make(map[model.ProcessID]arch.TileID, len(asg.Tile))
			for k, v := range asg.Tile {
				perturbed[k] = v
			}
			perturbed[p.ID] = tile
			if !adherent(t, app, plat, asg.Impl, perturbed) {
				continue
			}
			if got := s.Evaluate(app, plat, asg.Impl, perturbed); got < asg.Energy-1e-9 {
				t.Errorf("moving %s to %s yields %v < optimal %v", p.Name, plat.Tile(tile).Name, got, asg.Energy)
			}
		}
	}
}

// adherent replays the perturbed assignment's reservations against the
// platform's capacities.
func adherent(t *testing.T, app *model.Application, plat *arch.Platform,
	impl map[model.ProcessID]*model.Implementation, tile map[model.ProcessID]arch.TileID) bool {
	t.Helper()
	mem := make(map[arch.TileID]int64)
	util := make(map[arch.TileID]float64)
	occ := make(map[arch.TileID]int)
	for _, p := range app.MappableProcesses() {
		im := impl[p.ID]
		tid := tile[p.ID]
		cyc, err := im.CyclesPerPeriod(app, p)
		if err != nil {
			return false
		}
		mem[tid] += im.MemBytes
		util[tid] += float64(cyc) / float64(plat.Tile(tid).CycleBudget(app.QoS.PeriodNs))
		occ[tid]++
	}
	for tid, m := range mem {
		tl := plat.Tile(tid)
		if m > tl.MemBytes || util[tid] > 1.0+1e-9 {
			return false
		}
		if tl.MaxOccupants > 0 && occ[tid] > tl.MaxOccupants {
			return false
		}
	}
	return true
}

func TestOptimalRespectsOccupancy(t *testing.T) {
	// Two processes whose only implementations are Montium, one Montium
	// tile that holds a single kernel: no adherent assignment exists.
	app := model.NewApplication("tight", model.QoS{PeriodNs: 4000})
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	app.Connect(a, b, 8, 4)
	lib := model.NewLibrary()
	for _, name := range []string{"a", "b"} {
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeMontium,
			WCET: pat3(), In: inPat(name, 8), Out: outPat(name, 8),
			EnergyPerPeriod: 10, MemBytes: 128,
		})
	}
	plat := arch.NewMesh("m", 2, 1, 1e9)
	plat.AttachTile(arch.TileSpec{Name: "M0", Type: arch.TypeMontium, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 1 << 20, MaxOccupants: 1})
	if _, err := solver(lib).Optimal(app, plat); err == nil {
		t.Fatal("expected no adherent assignment")
	}
	// A second Montium makes it solvable.
	plat.AttachTile(arch.TileSpec{Name: "M1", Type: arch.TypeMontium, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 1 << 20, MaxOccupants: 1})
	asg, err := solver(lib).Optimal(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Tile[a.ID] == asg.Tile[b.ID] {
		t.Error("both processes on one single-kernel Montium")
	}
}

func TestOptimalPrefersSharedTileWhenCommDominates(t *testing.T) {
	// Two chatty processes with implementations on ARM only: co-locating
	// them kills the communication energy and one idle share.
	app := model.NewApplication("chatty", model.QoS{PeriodNs: 4000})
	a := app.AddProcess("a")
	b := app.AddProcess("b")
	app.Connect(a, b, 10000, 4) // enormous traffic
	lib := model.NewLibrary()
	for _, name := range []string{"a", "b"} {
		lib.Add(&model.Implementation{
			Process: name, TileType: arch.TypeARM,
			WCET: pat3(), In: inPat(name, 10000), Out: outPat(name, 10000),
			EnergyPerPeriod: 10, MemBytes: 128,
		})
	}
	plat := arch.NewMesh("m", 2, 1, 1e9)
	plat.AttachTile(arch.TileSpec{Name: "A0", Type: arch.TypeARM, At: arch.Pt(0, 0), ClockHz: 200e6, MemBytes: 1 << 20})
	plat.AttachTile(arch.TileSpec{Name: "A1", Type: arch.TypeARM, At: arch.Pt(1, 0), ClockHz: 200e6, MemBytes: 1 << 20})
	asg, err := solver(lib).Optimal(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	if asg.Tile[a.ID] != asg.Tile[b.ID] {
		t.Error("optimal should co-locate chatty processes")
	}
}

func TestOptimalNodeBudget(t *testing.T) {
	app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 8, Seed: 3})
	plat := workload.SyntheticPlatform(4, 4, 3)
	s := solver(lib)
	s.MaxNodes = 10 // absurdly small
	_, err := s.Optimal(app, plat)
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// pat3 and friends build the minimal 3-phase read/compute/write impl
// used by the tiny hand-rolled instances above.
func pat3() csdf.Pattern { return csdf.Vals(1, 10, 1) }

func inPat(name string, tokens int64) map[string]csdf.Pattern {
	if name == "a" {
		return nil
	}
	return map[string]csdf.Pattern{"in": csdf.Vals(tokens, 0, 0)}
}

func outPat(name string, tokens int64) map[string]csdf.Pattern {
	if name == "b" {
		return nil
	}
	return map[string]csdf.Pattern{"out": csdf.Vals(0, 0, tokens)}
}
