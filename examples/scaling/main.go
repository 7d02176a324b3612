// Scaling: the benchmark corpus the paper's conclusions ask for (§5),
// exercised through the public API. Generates synthetic streaming
// applications of the three shapes across sizes, maps each, and prints a
// compact survey of mapper time, feasibility and energy, plus an
// independent simulation cross-check of a sample.
//
// Run with: go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/sim"
	"rtsm/internal/workload"
)

func main() {
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}
	sizes := []int{4, 8, 16, 32}

	fmt.Printf("%-10s %-6s %-10s %-10s %-12s %s\n",
		"shape", "procs", "feasible", "time", "energy[nJ]", "sim check")
	for _, shape := range shapes {
		for _, n := range sizes {
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: shape, Processes: n, Seed: int64(n) * 31,
			})
			plat := workload.SyntheticPlatform(6, 6, int64(n)*31)
			start := time.Now()
			res, err := core.NewMapper(lib).Map(app, plat)
			elapsed := time.Since(start)
			if err != nil {
				log.Fatalf("%s/%d: %v", shape, n, err)
			}
			check := "-"
			if res.Feasible {
				rep, err := sim.Validate(app, plat, res)
				if err != nil {
					log.Fatalf("%s/%d: sim: %v", shape, n, err)
				}
				if rep.MeetsThroughput {
					check = "confirmed"
				} else {
					check = fmt.Sprintf("period %.0f ns in sim", rep.PeriodNs)
				}
			}
			fmt.Printf("%-10s %-6d %-10v %-10v %-12.1f %s\n",
				shape, n, res.Feasible, elapsed.Round(time.Microsecond), res.Energy.Total(), check)
		}
	}
}
