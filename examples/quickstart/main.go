// Quickstart: define a three-process streaming application, give each
// process two implementations, build a 2×2 platform, and let the run-time
// spatial mapper place, route and verify it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

func main() {
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
}
