package energy_test

import (
	"fmt"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/energy"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestEvaluateMatchesDetailed prices the mappings of the seven HIPERLAN/2
// modes and a synthetic corpus. Evaluate must equal Detailed's Breakdown
// bit for bit, and repeated calls must agree: a sum that followed Go's
// map order would differ in the last bits from run to run.
func TestEvaluateMatchesDetailed(t *testing.T) {
	type mapped struct {
		name string
		app  *model.Application
		plat *arch.Platform
		mp   *core.Mapping
	}
	var corpus []mapped
	add := func(name string, app *model.Application, lib *model.Library, plat *arch.Platform) {
		res, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus = append(corpus, mapped{name, app, plat, res.Mapping})
	}
	for _, mode := range workload.Hiperlan2Modes {
		add(mode.Name, workload.Hiperlan2(mode), workload.Hiperlan2Library(mode), workload.Hiperlan2Platform())
	}
	for i, shape := range []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered} {
		for seed := int64(1); seed <= 9; seed++ {
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: shape, Processes: 3 + int(seed)%7, Seed: seed + int64(10*i), PeriodNs: 40_000})
			add(fmt.Sprintf("%s-%d", shape, seed), app, lib, workload.SyntheticPlatform(6, 6, seed))
		}
	}
	p := energy.DefaultParams()
	bits := func(b energy.Breakdown) string {
		return fmt.Sprint(b.Processing, b.Communication, b.Idle)
	}
	for _, c := range corpus {
		asg := core.AssignmentView(c.mp)
		want := p.Evaluate(c.app, c.plat, asg)
		if got := p.Detailed(c.app, c.plat, asg).Breakdown; got != want {
			t.Errorf("%s: Detailed %s, Evaluate %s", c.name, bits(got), bits(want))
		}
		for range 50 {
			if got := p.Evaluate(c.app, c.plat, asg); got != want {
				t.Fatalf("%s: Evaluate gave %s, then %s", c.name, bits(want), bits(got))
			}
		}
	}
}
