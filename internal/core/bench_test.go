package core

import (
	"fmt"
	"testing"

	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// BenchmarkMapMeshScaling maps the same twelve seeded synthetic
// applications (3–10 processes; chain, fork-join and layered) cold onto
// empty 6×6, 12×12, 24×24 and 48×48 meshes. It reports the time per map
// (ms/map) and how many of the twelve maps were feasible (feasible). A
// cold map should cost what the application costs, not what the mesh
// costs: step 2 prices a move to every tile of the process's type, and
// checks a tile's room only when its price beats the best move so far.
func BenchmarkMapMeshScaling(b *testing.B) {
	type job struct {
		app *model.Application
		m   *Mapper
	}
	jobs := make([]job, 12)
	for i := range jobs {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: step12Shapes[i%len(step12Shapes)], Processes: 3 + i%8, Seed: int64(i),
			MaxUtil: 0.2, PeriodNs: 40_000,
		})
		jobs[i] = job{app, NewMapper(lib)}
	}
	for _, n := range []int{6, 12, 24, 48} {
		plat := workload.SyntheticPlatform(n, n, 123)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			feasible := 0
			for b.Loop() {
				feasible = 0
				for _, j := range jobs {
					res, err := j.m.Map(j.app, plat)
					if err != nil {
						b.Fatal(err)
					}
					if res.Feasible {
						feasible++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(jobs)), "ms/map")
			b.ReportMetric(float64(feasible), "feasible")
		})
	}
}
