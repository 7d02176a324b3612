package sim

import (
	"testing"

	"rtsm/internal/core"
	"rtsm/internal/workload"
)

func TestValidateHiperlan2(t *testing.T) {
	for _, mode := range workload.Hiperlan2Modes {
		app := workload.Hiperlan2(mode)
		lib := workload.Hiperlan2Library(mode)
		plat := workload.Hiperlan2Platform()
		res, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		if !res.Feasible {
			t.Fatalf("%s: mapper infeasible", mode.Name)
		}
		rep, err := Validate(app, plat, res)
		if err != nil {
			t.Fatalf("%s: %v", mode.Name, err)
		}
		// One process per tile in this case study, so the simulator must
		// agree with step 4 exactly.
		if !rep.MeetsThroughput {
			t.Errorf("%s: %s", mode.Name, rep)
		}
		if rep.Deadlocked {
			t.Errorf("%s: simulation deadlocked", mode.Name)
		}
	}
}

func TestValidateAgreesWithStep4WhenExclusive(t *testing.T) {
	mode := workload.Hiperlan2Modes[3]
	app := workload.Hiperlan2(mode)
	lib := workload.Hiperlan2Library(mode)
	plat := workload.Hiperlan2Platform()
	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(app, plat, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeriodNs != res.Analysis.Period {
		t.Errorf("simulator period %.0f differs from step 4's %.0f despite exclusive tiles",
			rep.PeriodNs, res.Analysis.Period)
	}
	// Tile utilisation must be sane: positive for mapped tiles, and the
	// A/D tile is saturated by the once-per-period source firing.
	for _, name := range []string{"ARM1", "ARM2", "MONTIUM1", "MONTIUM2"} {
		u := rep.TileUtilisation[name]
		if u <= 0 || u > 1.001 {
			t.Errorf("tile %s utilisation %v out of range", name, u)
		}
	}
}

func TestValidateSyntheticCoLocation(t *testing.T) {
	// A synthetic case on a tiny platform forces co-location; the
	// simulator must still complete and produce a verdict (agreement
	// with step 4 is measured, not assumed — see experiment E11).
	app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 6, Seed: 21, MaxUtil: 0.2})
	plat := workload.SyntheticPlatform(2, 2, 21)
	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		t.Skipf("instance unmappable: %v", err)
	}
	if !res.Feasible {
		t.Skip("instance infeasible; co-location verdicts need a feasible base")
	}
	rep, err := Validate(app, plat, res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeriodNs <= 0 {
		t.Error("no period measured")
	}
	// Co-location can only slow things down relative to step 4's
	// contention-free analysis, up to the ~2% averaging noise of the
	// finite measurement window (warmup backlog drains into it).
	if rep.PeriodNs < res.Analysis.Period*0.98 {
		t.Errorf("simulator (%.0f) faster than contention-free analysis (%.0f)",
			rep.PeriodNs, res.Analysis.Period)
	}
}

func TestValidateRejectsIncompleteResult(t *testing.T) {
	if _, err := Validate(workload.Hiperlan2(workload.Hiperlan2Modes[0]), workload.Hiperlan2Platform(), &core.Result{}); err == nil {
		t.Error("expected error for result without mapped graph")
	}
}
