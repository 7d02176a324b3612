package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// step12Case is one differential check of steps 1 and 2: a synthetic
// application mapped onto a mesh that already hosts background
// applications, with random tabu bans, under one configuration.
type step12Case struct {
	shape      workload.Shape
	procs      int
	seed       int64
	mesh       int // 6 or 8
	background int // 0, 12 or 24 background applications
	bans       int
	cfg        Config
}

// step12Configs covers every ablation that changes what steps 1 and 2
// compute.
var step12Configs = []Config{
	{},
	{Strategy: BestImprovement},
	{CommCost: TrafficWeighted},
	{CommEstimateInStep1: true},
	{ArbitraryOrder: true},
	{Strategy: BestImprovement, CommCost: TrafficWeighted, CommEstimateInStep1: true},
}

var step12Shapes = []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}

var (
	loadedMu    sync.Mutex
	loadedPlats = map[[2]int]*arch.Platform{}
)

// loadedPlatform returns a mesh hosting up to background committed chain
// applications, built once per (mesh, background); callers clone it.
func loadedPlatform(t testing.TB, mesh, background int) *arch.Platform {
	loadedMu.Lock()
	defer loadedMu.Unlock()
	key := [2]int{mesh, background}
	if p := loadedPlats[key]; p != nil {
		return p
	}
	plat := workload.SyntheticPlatform(mesh, mesh, 123)
	for i := 0; i < background; i++ {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 3 + i%3, Seed: int64(1000 + i),
			MaxUtil: 0.12, PeriodNs: 40_000,
		})
		res, err := NewMapper(lib).Map(app, plat)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible {
			if err := Apply(plat, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	loadedPlats[key] = plat
	return plat
}

// step12Run is what one run of steps 1 and 2 leaves behind.
type step12Run struct {
	work *arch.Platform
	mp   *Mapping
	tr   *Trace
	fb   *feedback
	// snaps holds the oracle's per-row assignments.
	snaps []map[string]string
}

func runStep12(m *Mapper, ix *appIndex, plat *arch.Platform, tb *tabu, ref bool) step12Run {
	r := step12Run{work: plat.Clone(), tr: &Trace{}}
	r.mp = &Mapping{
		App:  ix.app,
		Impl: make(map[model.ProcessID]*model.Implementation),
		Tile: make(map[model.ProcessID]arch.TileID),
	}
	for _, p := range ix.app.Processes {
		if p.PinnedTile != "" && !p.Control {
			r.mp.Tile[p.ID] = r.work.TileByName(p.PinnedTile).ID
		}
	}
	switch {
	case ref:
		if r.fb = m.refStep1(ix, r.work, r.mp, tb, r.tr); r.fb == nil {
			r.snaps = m.refStep2(ix, r.work, r.mp, nil, r.tr)
		}
	default:
		if r.fb = m.step1(ix, r.work, r.mp, tb, r.tr); r.fb == nil {
			m.step2(ix, r.work, r.mp, nil, r.tr)
		}
	}
	return r
}

// checkStep12 runs the case through the incremental steps and through the
// oracle and requires identical traces, mappings, reservations and energy.
func checkStep12(t *testing.T, c step12Case) {
	t.Helper()
	plat := loadedPlatform(t, c.mesh, c.background)
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: c.shape, Processes: c.procs, Seed: c.seed, MaxUtil: 0.2, PeriodNs: 40_000,
	})
	ix := newAppIndex(app)
	m := &Mapper{Lib: lib, Cfg: c.cfg}
	rng := rand.New(rand.NewSource(c.seed))
	tb := newTabu()
	for i := 0; i < c.bans; i++ {
		p := ix.procs[rng.Intn(len(ix.procs))]
		if ims := lib.For(p.Name); rng.Intn(2) == 0 {
			tb.apply(&feedback{process: p.ID, banImplType: ims[rng.Intn(len(ims))].TileType})
		} else {
			tb.apply(&feedback{process: p.ID, banTile: arch.TileID(rng.Intn(len(plat.Tiles))), useBanTile: true})
		}
	}
	got := runStep12(m, ix, plat, tb, false)
	want := runStep12(m, ix, plat, tb, true)

	name := fmt.Sprintf("%+v", c)
	if !reflect.DeepEqual(got.fb, want.fb) {
		t.Fatalf("%s: feedback %v, oracle %v", name, got.fb, want.fb)
	}
	if !reflect.DeepEqual(got.tr.Step1, want.tr.Step1) {
		t.Fatalf("%s: step 1 trace\n%v\noracle\n%v", name, got.tr.Step1, want.tr.Step1)
	}
	if len(got.tr.Step2) != len(want.tr.Step2) {
		t.Fatalf("%s: %d step-2 rows, oracle %d", name, len(got.tr.Step2), len(want.tr.Step2))
	}
	for i := range got.tr.Step2 {
		if g, w := got.tr.Step2[i], want.tr.Step2[i]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: step-2 row %d\n%+v\noracle\n%+v", name, i, g, w)
		}
	}
	if !reflect.DeepEqual(got.tr.Notes, want.tr.Notes) {
		t.Fatalf("%s: notes %q, oracle %q", name, got.tr.Notes, want.tr.Notes)
	}
	tiles := make([]string, len(plat.Tiles))
	for i, tile := range plat.Tiles {
		tiles[i] = tile.Name
	}
	if g, w := got.tr.RenderStep2Table(tiles), refRenderStep2Table(want.tr, want.snaps, tiles); g != w {
		t.Fatalf("%s: replayed table\n%s\neager table\n%s", name, g, w)
	}
	if !reflect.DeepEqual(got.mp.Impl, want.mp.Impl) || !reflect.DeepEqual(got.mp.Tile, want.mp.Tile) {
		t.Fatalf("%s: mapping differs from the oracle's", name)
	}
	for i, gt := range got.work.Tiles {
		wt := want.work.Tiles[i]
		if gt.ReservedMem != wt.ReservedMem || gt.ReservedUtil != wt.ReservedUtil || gt.Occupants != wt.Occupants {
			t.Fatalf("%s: tile %q reservations differ from the oracle's", name, gt.Name)
		}
	}
	// Evaluate adds processing energy in map order, so two calls on one
	// mapping may differ in the last bit: identical mappings, checked
	// above, agree to rounding.
	params := m.Cfg.energyParams()
	ge := params.Evaluate(app, got.work, AssignmentView(got.mp)).Total()
	we := params.Evaluate(app, want.work, AssignmentView(want.mp)).Total()
	if math.Abs(ge-we) > 1e-12*math.Abs(we) {
		t.Fatalf("%s: energy %v, oracle %v", name, ge, we)
	}
}

// TestStep1Step2MatchRecompute holds the incremental step 1 and the
// incident-channel step 2 to the code they replaced on 540 seeded
// synthetic applications: 3–12 processes of every shape, 6×6 and 8×8
// meshes carrying 0, 12 or 24 background applications, random tabu bans
// and every configuration in step12Configs.
func TestStep1Step2MatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 540; i++ {
		checkStep12(t, step12Case{
			shape:      step12Shapes[i%len(step12Shapes)],
			procs:      3 + rng.Intn(10),
			seed:       int64(i),
			mesh:       6 + 2*rng.Intn(2),
			background: 12 * rng.Intn(3),
			bans:       rng.Intn(4),
			cfg:        step12Configs[i%len(step12Configs)],
		})
	}
}

// TestRenderStep2TableReplay compares the replayed Table 2 with the eager
// one on best-improvement runs that swap: every accepted swap changes the
// assignment later rows replay from.
func TestRenderStep2TableReplay(t *testing.T) {
	swaps := 0
	for seed := int64(0); seed < 200 && swaps < 20; seed++ {
		c := step12Case{
			shape: workload.ShapeLayered, procs: 12, seed: seed, mesh: 6, background: 24,
			cfg: Config{Strategy: BestImprovement},
		}
		checkStep12(t, c)
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: c.shape, Processes: c.procs, Seed: c.seed, MaxUtil: 0.2, PeriodNs: 40_000,
		})
		run := runStep12(&Mapper{Lib: lib, Cfg: c.cfg}, newAppIndex(app), loadedPlatform(t, c.mesh, c.background), newTabu(), false)
		for _, r := range run.tr.Step2 {
			if r.Kind == Swap && r.Accepted {
				swaps++
			}
		}
	}
	if swaps < 20 {
		t.Fatalf("only %d accepted swaps: the fixture no longer exercises swap replay", swaps)
	}
}

// FuzzStep12Differential runs the same oracle on fuzzer-chosen seeds,
// sizes, shapes, loads, bans and configurations.
func FuzzStep12Differential(f *testing.F) {
	f.Add(int64(1), 5, 0, 0, 0, 0)
	f.Add(int64(7), 12, 2, 3, 2, 1)
	f.Add(int64(42), 9, 1, 5, 3, 5)
	f.Fuzz(func(t *testing.T, seed int64, procs, shape, load, bans, cfg int) {
		checkStep12(t, step12Case{
			shape:      step12Shapes[abs(shape)%len(step12Shapes)],
			procs:      3 + abs(procs)%10,
			seed:       seed,
			mesh:       6 + 2*(abs(load)%2),
			background: 12 * (abs(load) / 2 % 3),
			bans:       abs(bans) % 6,
			cfg:        step12Configs[abs(cfg)%len(step12Configs)],
		})
	})
}

// TestAppIndexMatchesModel checks the application index against the
// model's own helpers: the same processes and channels, incident lists
// ascending, NI demand as the channels add up.
func TestAppIndexMatchesModel(t *testing.T) {
	for i, shape := range step12Shapes {
		app, _ := workload.Synthetic(workload.SynthOptions{Shape: shape, Processes: 8, Seed: int64(i)})
		ix := newAppIndex(app)
		if !reflect.DeepEqual(ix.procs, app.MappableProcesses()) || !reflect.DeepEqual(ix.chans, app.StreamChannels()) {
			t.Fatalf("%s: index disagrees with the model's process or channel lists", shape)
		}
		for _, p := range app.Processes {
			var got []*model.Channel
			for k, ci := range ix.incident[p.ID] {
				if k > 0 && ix.incident[p.ID][k-1] >= ci {
					t.Fatalf("%s: incident list of %q not ascending", shape, p.Name)
				}
				got = append(got, ix.chans[ci])
			}
			if want := app.ChannelsOf(p.ID); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: incident channels of %q = %v, want %v", shape, p.Name, got, want)
			}
			if got, want := ix.ni[p.ID], refNIDemand(app, p); got != want {
				t.Errorf("%s: NI demand of %q = %+v, want %+v", shape, p.Name, got, want)
			}
		}
	}
}
