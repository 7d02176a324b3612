// Package rtsm's root benchmarks regenerate the experiment suite under
// the Go benchmark harness: one benchmark per paper artefact (E1–E6) and
// per extended experiment (E7–E12); admission_bench_test.go adds the
// concurrent admission-pipeline benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// EXPERIMENTS.md records a reference run of the whole suite.
package rtsm

import (
	"testing"

	"rtsm/internal/baseline"
	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/experiments"
	"rtsm/internal/gap"
	"rtsm/internal/manager"
	"rtsm/internal/sim"
	"rtsm/internal/workload"
)

// BenchmarkE1Fig1KPN measures construction of the HIPERLAN/2 application
// model (Figure 1).
func BenchmarkE1Fig1KPN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app := workload.Hiperlan2(experiments.DefaultMode)
		if len(app.Channels) != 6 {
			b.Fatal("wrong channel count")
		}
	}
}

// BenchmarkE2Table1Library measures construction of the Table 1
// implementation catalogue.
func BenchmarkE2Table1Library(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lib := workload.Hiperlan2Library(experiments.DefaultMode)
		if lib.Processes() != 4 {
			b.Fatal("wrong library")
		}
	}
}

// BenchmarkE3Fig2Platform measures construction of the Figure 2 MPSoC.
func BenchmarkE3Fig2Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plat := workload.Hiperlan2Platform()
		if len(plat.Tiles) != 6 {
			b.Fatal("wrong platform")
		}
	}
}

// BenchmarkE4Table2Step2 measures the steps that produce Table 2: one full
// mapping run of the worked example (step 2 is inseparable from the state
// steps 1 and 3 maintain around it).
func BenchmarkE4Table2Step2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MapHiperlan2(experiments.DefaultMode, core.Config{})
		if err != nil || len(res.Trace.Step2) == 0 {
			b.Fatalf("no step-2 trace: %v", err)
		}
	}
}

// BenchmarkE5Fig3BufferSizing isolates step 4: building the mapped CSDF
// graph and sizing its buffers for a fixed placement.
func BenchmarkE5Fig3BufferSizing(b *testing.B) {
	res, err := experiments.MapHiperlan2(experiments.DefaultMode, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	app := res.Mapping.App
	lib := workload.Hiperlan2Library(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	var placement []core.PlacedProcess
	for _, p := range app.MappableProcesses() {
		placement = append(placement, core.PlacedProcess{
			Process: p.Name,
			Impl:    res.Mapping.Impl[p.ID],
			Tile:    plat.Tile(res.Mapping.Tile[p.ID]).Name,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fin, err := core.FinishAssignment(lib, core.Config{}, app, plat, placement)
		if err != nil || !fin.Feasible {
			b.Fatalf("finish failed: %v", err)
		}
	}
}

// BenchmarkE6MapperRuntime is the paper's §4.5 measurement: one complete
// run-time mapping of the HIPERLAN/2 receiver (paper: <4 ms on a 100 MHz
// ARM926; the shape claim is "a small constant cost at application
// start").
func BenchmarkE6MapperRuntime(b *testing.B) {
	app := workload.Hiperlan2(experiments.DefaultMode)
	lib := workload.Hiperlan2Library(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	m := core.NewMapper(lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Map(app, plat)
		if err != nil || !res.Feasible {
			b.Fatalf("mapping failed: %v", err)
		}
	}
}

// BenchmarkE7RuntimeVsDesignTime measures the design-time baseline flow
// for one mode (map worst case, freeze, re-verify under actual mode).
func BenchmarkE7RuntimeVsDesignTime(b *testing.B) {
	worst := workload.Hiperlan2Modes[6]
	actual := workload.Hiperlan2Modes[0]
	worstApp := workload.Hiperlan2(worst)
	worstLib := workload.Hiperlan2Library(worst)
	app := workload.Hiperlan2(actual)
	lib := workload.Hiperlan2Library(actual)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plat := workload.Hiperlan2Platform()
		res, err := baseline.DesignTime(worstLib, lib, core.Config{}, worstApp, app, plat, plat)
		if err != nil || !res.Feasible {
			b.Fatalf("design-time flow failed: %v", err)
		}
	}
}

// BenchmarkE8QualityVsOptimal measures one exact branch-and-bound solve on
// a 5-process instance, the E8 reference cost.
func BenchmarkE8QualityVsOptimal(b *testing.B) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 5, Seed: 0})
	plat := workload.SyntheticPlatform(3, 3, 0)
	solver := &gap.Solver{Lib: lib, Params: energy.DefaultParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Optimal(app, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ScalingMesh measures mapping 12 processes onto an 8×8 mesh
// (the platform-size axis of E9).
func BenchmarkE9ScalingMesh(b *testing.B) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 12, Seed: 77})
	plat := workload.SyntheticPlatform(8, 8, 77)
	m := core.NewMapper(lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(app, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9ScalingProcesses measures mapping 32 processes onto a 6×6
// mesh (the application-size axis of E9).
func BenchmarkE9ScalingProcesses(b *testing.B) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 32, Seed: 78})
	plat := workload.SyntheticPlatform(6, 6, 78)
	m := core.NewMapper(lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(app, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10GreedyOnly times the step-1-only ablation against
// BenchmarkE6MapperRuntime's full pipeline.
func BenchmarkE10GreedyOnly(b *testing.B) {
	app := workload.Hiperlan2(experiments.DefaultMode)
	lib := workload.Hiperlan2Library(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	m := &core.Mapper{Lib: lib, Cfg: core.Config{NoStep2: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(app, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10BestImprovement times the best-improvement step-2 variant.
func BenchmarkE10BestImprovement(b *testing.B) {
	app := workload.Hiperlan2(experiments.DefaultMode)
	lib := workload.Hiperlan2Library(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	m := &core.Mapper{Lib: lib, Cfg: core.Config{Strategy: core.BestImprovement}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(app, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10BinPackBaseline times the Moreira-style bin-packing
// baseline.
func BenchmarkE10BinPackBaseline(b *testing.B) {
	app := workload.Hiperlan2(experiments.DefaultMode)
	lib := workload.Hiperlan2Library(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.BinPack(lib, core.Config{}, app, plat, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11SimValidate times the independent discrete-event check of a
// mapped HIPERLAN/2 receiver.
func BenchmarkE11SimValidate(b *testing.B) {
	app := workload.Hiperlan2(experiments.DefaultMode)
	plat := workload.Hiperlan2Platform()
	res, err := experiments.MapHiperlan2(experiments.DefaultMode, core.Config{})
	if err != nil || !res.Feasible {
		b.Fatalf("mapping failed: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.Validate(app, plat, res)
		if err != nil || !rep.MeetsThroughput {
			b.Fatalf("validation failed: %v", err)
		}
	}
}

// BenchmarkE12AdmissionChurn times one admission plus release cycle
// through the run-time manager on a loaded platform.
func BenchmarkE12AdmissionChurn(b *testing.B) {
	mgr := manager.New(workload.SyntheticPlatform(5, 5, 500), core.Config{})
	// Pre-load the platform with three residents.
	for i := 0; i < 3; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 4, Seed: int64(9000 + i), MaxUtil: 0.25})
		app.Name = resName(i)
		if _, err := mgr.Start(app, lib); err != nil {
			b.Fatal(err)
		}
	}
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 5, Seed: 9999, MaxUtil: 0.25})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Name = "churn"
		if _, err := mgr.Start(app, lib); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Stop("churn"); err != nil {
			b.Fatal(err)
		}
	}
}

func resName(i int) string { return string(rune('a'+i)) + "-resident" }
