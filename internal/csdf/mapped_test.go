package csdf_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// mappedCase is an application the four-step mapper mapped onto a
// platform, with the graph step 4 builds for it: one actor per process
// and per router hop, stream buffers unsized.
type mappedCase struct {
	name      string
	synthetic bool
	mg        *core.MappedGraph
	period    int64
}

// mappedCorpus maps the seven HIPERLAN/2 modes onto the paper's platform
// and seeded synthetic chain, fork-join and layered applications of 3–10
// processes onto 6×6 and 8×8 meshes and onto a 12×12 mesh of 4×4 regions.
// The random specs of the other differential tests rarely stream long
// bursts through chains of unit-rate routers; these graphs are made of
// them.
func mappedCorpus(t *testing.T) []mappedCase {
	t.Helper()
	var cases []mappedCase
	add := func(name string, synthetic bool, app *model.Application, lib *model.Library, plat *arch.Platform) {
		res, err := core.NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Mapping == nil {
			return
		}
		mg, err := core.BuildMappedGraph(app, plat, res.Mapping)
		if err != nil {
			return // step 1 left a process unmapped
		}
		cases = append(cases, mappedCase{name, synthetic, mg, app.QoS.PeriodNs})
	}
	for _, mode := range workload.Hiperlan2Modes {
		add("hiperlan2/"+mode.Name, false, workload.Hiperlan2(mode), workload.Hiperlan2Library(mode), workload.Hiperlan2Platform())
	}
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}
	rng := rand.New(rand.NewSource(38))
	for _, mesh := range []struct{ size, region int }{{6, 0}, {8, 0}, {12, 4}} {
		plat := workload.SyntheticRegionPlatform(mesh.size, mesh.size, 123, mesh.region)
		regions := 1
		if mesh.region > 0 {
			regions = (mesh.size / mesh.region) * (mesh.size / mesh.region)
		}
		for k := 0; k < trials(9); k++ {
			shape, procs, r := shapes[k%len(shapes)], 3+rng.Intn(8), strconv.Itoa(rng.Intn(regions))
			app, lib := workload.Synthetic(workload.SynthOptions{
				Shape: shape, Processes: procs, Seed: rng.Int63(), MaxUtil: 0.2, PeriodNs: 40_000,
				SrcTile: "SRC" + r, SinkTile: "SINK" + r,
			})
			add(fmt.Sprintf("synthetic/%dx%d/%s-%d", mesh.size, mesh.size, shape, procs), true, app, lib, plat)
		}
	}
	return cases
}

// trials cuts the number of synthetic applications per platform under
// -short and under the race detector, which slows the reference engines
// tenfold.
func trials(full int) int {
	if testing.Short() || csdf.RaceEnabled {
		return max(1, full/3)
	}
	return full
}

// TestMappedGraphsDifferential holds step 4's two calls on mapped graphs
// to the reference engines, field for field: BufferSizes as the mapper
// makes it, and Execute with the capacities it chose. On at least half of
// the synthetic graphs, whose bursts stream through chains of routers,
// those Execute runs must skip stream windows: the reference can only
// vouch for the skip where it is taken. On the synthetic graphs the lane
// must carry at least 75 % of the completions the runs apply, since
// routers make 87–97 % of their firings: a lane that stopped taking the
// router hop would leave the answers equal and only the time worse.
func TestMappedGraphsDifferential(t *testing.T) {
	share := csdf.TrackEngines(t)
	streaming, synthetic := 0, 0
	var simulated, laned, heaped int64
	for _, c := range mappedCorpus(t) {
		start := share()
		g := c.mg.Graph
		exec := csdf.ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: c.mg.Sink, Source: c.mg.Source}
		opts := csdf.BufferOptions{TargetPeriod: float64(c.period), Exec: exec}
		want, wantErr := csdf.BufferSizesRef(g, opts)
		sized, gotErr := csdf.BufferSizes(g, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: BufferSizes error %v, reference %v", c.name, gotErr, wantErr)
		}
		if sized == nil {
			continue
		}
		if !reflect.DeepEqual(sized.Capacities, want.Capacities) || !csdf.SameResult(sized.Exec, want.Exec) || sized.Met != want.Met {
			t.Fatalf("%s: BufferSizes = %+v (exec %+v)\nreference %+v (exec %+v)", c.name, sized, sized.Exec, want, want.Exec)
		}
		for cid, capacity := range sized.Capacities {
			g.Channel(cid).Capacity = capacity
		}
		before := share()
		for _, opts := range []csdf.ExecOptions{exec, csdf.DefaultExecOptions()} {
			want, wantErr := csdf.ExecuteRef(g, opts)
			got, gotErr := g.Execute(opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !csdf.SameResult(got, want) {
				t.Fatalf("%s: Execute = %+v, %v\nreference %+v, %v", c.name, got, gotErr, want, wantErr)
			}
		}
		after := share()
		t.Logf("%-36s %3d actors: %5d instants simulated, %4d windows streamed", c.name, len(g.Actors),
			after.Simulated-before.Simulated, after.Streamed-before.Streamed)
		if c.synthetic {
			synthetic++
			simulated += after.Simulated - before.Simulated
			laned += after.Laned - start.Laned
			heaped += after.Heaped - start.Heaped
			if after.Streamed > before.Streamed {
				streaming++
			}
		}
	}
	t.Logf("%d of %d synthetic graphs streamed; %d instants simulated; the lane carried %d of %d completions",
		streaming, synthetic, simulated, laned, laned+heaped)
	if synthetic == 0 || streaming*2 < synthetic {
		t.Errorf("%d of %d synthetic graphs skipped stream windows, want at least half", streaming, synthetic)
	}
	if laned*4 < (laned+heaped)*3 {
		t.Errorf("the lane carried %d of the synthetic graphs' %d completions, want at least 75 %%", laned, laned+heaped)
	}
}
