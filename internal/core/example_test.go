package core_test

import (
	"fmt"
	"log"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// ExampleMapper_Map defines a streaming application whose processes each
// have two implementations, builds a 2×2 platform, and lets the run-time
// spatial mapper place, route and verify it.
func ExampleMapper_Map() {
	// 1. The application: a pipeline src → filter → fft → quant → sink
	//    processing one block of 64 samples every 10 µs.
	app := model.NewApplication("quickstart", model.QoS{PeriodNs: 10_000})
	src := app.AddPinnedProcess("src", "ADC")
	filter := app.AddProcess("filter")
	fft := app.AddProcess("fft")
	quant := app.AddProcess("quant")
	sink := app.AddPinnedProcess("sink", "DAC")
	app.Connect(src, filter, 64, 4)
	app.Connect(filter, fft, 64, 4)
	app.Connect(fft, quant, 64, 4)
	app.Connect(quant, sink, 16, 4)

	// 2. The implementation library: every process can run on an ARM
	//    (cheap to have around, hungry per sample) or on a DSP (faster
	//    and leaner). CSDF phases are read / compute / write; WCETs are
	//    clock cycles on the target tile.
	lib := model.NewLibrary()
	impl := func(proc string, tt arch.TileType, compute int64, energy float64, inTok, outTok int64) *model.Implementation {
		return &model.Implementation{
			Process: proc, TileType: tt,
			WCET:            csdf.Vals(inTok/8+1, compute, outTok/8+1),
			In:              map[string]csdf.Pattern{"in": csdf.Vals(inTok, 0, 0)},
			Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, outTok)},
			EnergyPerPeriod: energy, MemBytes: 2048,
		}
	}
	lib.Add(impl("filter", arch.TypeARM, 400, 90, 64, 64))
	lib.Add(impl("filter", arch.TypeDSP, 250, 35, 64, 64))
	lib.Add(impl("fft", arch.TypeARM, 900, 210, 64, 64))
	lib.Add(impl("fft", arch.TypeDSP, 400, 95, 64, 64))
	lib.Add(impl("quant", arch.TypeARM, 150, 40, 64, 16))
	lib.Add(impl("quant", arch.TypeDSP, 100, 25, 64, 16))

	// 3. The platform: a 2×2 mesh with one ARM, one DSP, and the two
	//    pinned converter tiles.
	plat := arch.NewMesh("quickstart-soc", 2, 2, 800_000_000)
	plat.AttachTile(arch.TileSpec{Name: "ARM0", Type: arch.TypeARM, At: arch.Pt(1, 0),
		ClockHz: 200e6, MemBytes: 64 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "DSP0", Type: arch.TypeDSP, At: arch.Pt(1, 1),
		ClockHz: 200e6, MemBytes: 32 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "ADC", Type: arch.TypeSource, At: arch.Pt(0, 0),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})
	plat.AttachTile(arch.TileSpec{Name: "DAC", Type: arch.TypeSink, At: arch.Pt(0, 1),
		ClockHz: 200e6, MemBytes: 8 << 10, NICapBps: 800e6})

	// 4. Map it.
	res, err := core.NewMapper(lib).Map(app, plat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("placement:")
	for _, p := range app.Processes {
		tid, ok := res.Mapping.Tile[p.ID]
		if !ok {
			continue
		}
		what := "(pinned)"
		if im := res.Mapping.Impl[p.ID]; im != nil {
			what = fmt.Sprintf("as %s (%.0f nJ/period)", im.TileType, im.EnergyPerPeriod)
		}
		fmt.Printf("  %-8s on %-5s %s\n", p.Name, plat.Tile(tid).Name, what)
	}
	fmt.Printf("\nenergy:   %s\n", res.Energy)
	fmt.Printf("period:   %.0f ns (required %d ns)\n", res.Analysis.Period, app.QoS.PeriodNs)
	fmt.Printf("latency:  %d ns\n", res.Analysis.Latency)
	fmt.Printf("feasible: %v\n", res.Feasible)

	// Output:
	// placement:
	//   src      on ADC   (pinned)
	//   filter   on DSP0  as DSP (35 nJ/period)
	//   fft      on DSP0  as DSP (95 nJ/period)
	//   quant    on DSP0  as DSP (25 nJ/period)
	//   sink     on DAC   (pinned)
	//
	// energy:   total 201.6 nJ/period (proc 155.0, comm 41.6, idle 5.0)
	// period:   10000 ns (required 10000 ns)
	// latency:  15611 ns
	// feasible: true
}

// sensorApp is a light two-process pipeline that fits on the ARMs next to
// a running receiver.
func sensorApp() (*model.Application, *model.Library) {
	app := model.NewApplication("sensor", model.QoS{PeriodNs: 100_000})
	src := app.AddPinnedProcess("probe", "A/D")
	avg := app.AddProcess("avg")
	detect := app.AddProcess("detect")
	sink := app.AddPinnedProcess("report", "Sink")
	app.Connect(src, avg, 16, 4)
	app.Connect(avg, detect, 4, 4)
	app.Connect(detect, sink, 1, 4)
	lib := model.NewLibrary()
	lib.Add(&model.Implementation{
		Process: "avg", TileType: arch.TypeARM,
		WCET:            csdf.Vals(3, 120, 1),
		In:              map[string]csdf.Pattern{"in": csdf.Vals(16, 0, 0)},
		Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 4)},
		EnergyPerPeriod: 15, MemBytes: 1024,
	})
	lib.Add(&model.Implementation{
		Process: "detect", TileType: arch.TypeARM,
		WCET:            csdf.Vals(1, 80, 1),
		In:              map[string]csdf.Pattern{"in": csdf.Vals(4, 0, 0)},
		Out:             map[string]csdf.Pattern{"out": csdf.Vals(0, 0, 1)},
		EnergyPerPeriod: 9, MemBytes: 1024,
	})
	return app, lib
}

// occupancy lists the tiles that hold reservations.
func occupancy(plat *arch.Platform) string {
	s := ""
	for _, t := range plat.Tiles {
		if t.Occupants > 0 {
			s += fmt.Sprintf("  %-9s occ=%d util=%.0f%% mem=%d B\n",
				t.Name, t.Occupants, 100*t.ReservedUtil, t.ReservedMem)
		}
	}
	if s == "" {
		return "  (all tiles idle)\n"
	}
	return s
}

// ExampleApply is the scenario the paper's introduction motivates:
// applications start and stop at run time, each arrival is mapped against
// the platform's actual residual resources (not design-time worst
// cases), admitted if feasible, and its reservations persist until it
// stops. Two HIPERLAN/2 receivers cannot coexist on the Figure 2
// platform (four heavy kernels, two Montiums), but a receiver and a
// lightweight sensor pipeline can, and after the receiver stops, a second
// receiver fits again.
func ExampleApply() {
	plat := workload.Hiperlan2Platform()
	mode := workload.Hiperlan2Modes[2]

	fmt.Println("1) Admit a HIPERLAN/2 receiver:")
	rxApp := workload.Hiperlan2(mode)
	rxLib := workload.Hiperlan2Library(mode)
	rx, err := core.NewMapper(rxLib).Map(rxApp, plat)
	if err != nil {
		log.Fatal(err)
	}
	if !rx.Feasible {
		log.Fatal("receiver unexpectedly infeasible")
	}
	if err := core.Apply(plat, rx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   admitted at %.1f nJ/symbol\n", rx.Energy.Total())
	fmt.Print(occupancy(plat))

	fmt.Println("\n2) Try to admit a second receiver (should fail — the Montiums are taken):")
	rx2App := workload.Hiperlan2(mode)
	rx2App.Name = "hiperlan2-rx2"
	rx2, err := core.NewMapper(rxLib).Map(rx2App, plat)
	switch {
	case err != nil:
		fmt.Printf("   rejected: %v\n", err)
	case !rx2.Feasible:
		fmt.Println("   rejected: no feasible mapping with current occupancy")
	default:
		fmt.Println("   unexpectedly admitted!")
	}

	fmt.Println("\n3) Admit a lightweight sensor pipeline alongside (fits the ARM headroom):")
	sApp, sLib := sensorApp()
	sensor, err := core.NewMapper(sLib).Map(sApp, plat)
	if err != nil {
		log.Fatal(err)
	}
	if !sensor.Feasible {
		log.Fatalf("sensor infeasible: %v", sensor.Trace.Notes)
	}
	if err := core.Apply(plat, sensor); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   admitted at %.1f nJ/period\n", sensor.Energy.Total())
	fmt.Print(occupancy(plat))

	fmt.Println("\n4) Stop the receiver and retry the second one:")
	core.Remove(plat, rx)
	rx2, err = core.NewMapper(rxLib).Map(rx2App, plat)
	if err != nil {
		log.Fatal(err)
	}
	if !rx2.Feasible {
		log.Fatalf("second receiver still infeasible: %v", rx2.Trace.Notes)
	}
	if err := core.Apply(plat, rx2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   admitted at %.1f nJ/symbol\n", rx2.Energy.Total())
	fmt.Print(occupancy(plat))

	// Output:
	// 1) Admit a HIPERLAN/2 receiver:
	//    admitted at 485.9 nJ/symbol
	//   ARM1      occ=1 util=68% mem=4128 B
	//   ARM2      occ=1 util=40% mem=4128 B
	//   MONTIUM1  occ=1 util=16% mem=4100 B
	//   MONTIUM2  occ=1 util=36% mem=4100 B
	//
	// 2) Try to admit a second receiver (should fail — the Montiums are taken):
	//    rejected: no feasible mapping with current occupancy
	//
	// 3) Admit a lightweight sensor pipeline alongside (fits the ARM headroom):
	//    admitted at 44.7 nJ/period
	//   ARM1      occ=3 util=69% mem=6256 B
	//   ARM2      occ=1 util=40% mem=4128 B
	//   MONTIUM1  occ=1 util=16% mem=4100 B
	//   MONTIUM2  occ=1 util=36% mem=4100 B
	//
	// 4) Stop the receiver and retry the second one:
	//    admitted at 485.9 nJ/symbol
	//   ARM1      occ=3 util=69% mem=6256 B
	//   ARM2      occ=1 util=40% mem=4128 B
	//   MONTIUM1  occ=1 util=16% mem=4100 B
	//   MONTIUM2  occ=1 util=36% mem=4100 B
}
