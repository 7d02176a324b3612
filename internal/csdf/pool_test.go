package csdf

import (
	"reflect"
	"sync"
	"testing"
)

// TestEngineSharedAcrossGoroutines runs Execute and BufferSizes from
// several goroutines on the same graphs, the way pipeline workers call
// Mapper.Map, and checks that pooled engine memory never shows through:
// every result equals the single-threaded one, and scribbling over one
// result leaves the others, which templates keep for later, intact.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	bounded := hl2LikeGraph()
	free := hl2LikeGraph()
	for _, c := range free.Channels {
		c.Capacity = 0
	}
	opts := DefaultExecOptions()
	sizing := BufferOptions{TargetPeriod: 4000}
	wantExec, err := bounded.Execute(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBuf, err := BufferSizes(free, sizing)
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 20
	execs := make([][]*ExecResult, workers)
	bufs := make([][]*BufferResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := bounded.Execute(opts)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := BufferSizes(free, sizing)
				if err != nil {
					t.Error(err)
					return
				}
				execs[w] = append(execs[w], r)
				bufs[w] = append(bufs[w], b)
				// Another graph shape in between, so engines get resized.
				if _, err := randomGraphForPool(w*rounds + i).Execute(ExecOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Deface the first result of every worker; the rest must not notice.
	for w := range execs {
		for _, victim := range []*ExecResult{execs[w][0], bufs[w][0].Exec} {
			for i := range victim.BusyTime {
				victim.BusyTime[i] = -1
			}
			for i := range victim.FullBlocks {
				victim.FullBlocks[i], victim.EmptyBlocks[i] = -1, -1
			}
			victim.BusyTime = append(victim.BusyTime, -1)
			victim.EmptyBlocks = append(victim.EmptyBlocks, -1)
			victim.FullBlocks = append(victim.FullBlocks, -1)
		}
	}
	if _, err := bounded.Execute(opts); err != nil { // and a run over the recycled engines
		t.Fatal(err)
	}
	for w := range execs {
		for i := 1; i < rounds; i++ {
			if !reflect.DeepEqual(execs[w][i], wantExec) {
				t.Fatalf("worker %d round %d: Execute = %+v, want %+v", w, i, execs[w][i], wantExec)
			}
			if !reflect.DeepEqual(bufs[w][i], wantBuf) {
				t.Fatalf("worker %d round %d: BufferSizes = %+v (exec %+v), want %+v (exec %+v)",
					w, i, bufs[w][i], bufs[w][i].Exec, wantBuf, wantBuf.Exec)
			}
		}
	}
}

func randomGraphForPool(seed int) *Graph {
	g := NewGraph("other")
	prev := g.AddActor("a0", Vals(int64(1+seed%7)))
	for i := 1; i <= 1+seed%9; i++ {
		next := g.AddActor("a", Vals(int64(1+(seed+i)%5), 2))
		g.Connect(prev, next, Rep(2, g.Actor(prev).Phases()), Rep(1, 2), 0)
		prev = next
	}
	return g
}

// TestExecuteAllocatesOnlyItsResult guards the pooled engine: a warm
// Execute may allocate its ExecResult and nothing that grows with the
// number of firings.
func TestExecuteAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	g := hl2LikeGraph()
	opts := DefaultExecOptions()
	run := func() {
		if r, err := g.Execute(opts); err != nil || r.Deadlocked {
			t.Fatalf("Execute: %v", err)
		}
	}
	run() // size the pooled engine
	if allocs := testing.AllocsPerRun(50, run); allocs > 8 {
		t.Errorf("warm Execute allocates %v objects, want at most 8", allocs)
	}
}

// TestBufferSizesAllocatesOnlyItsResult guards BufferSizes' pooled working
// copy: a warm call allocates its BufferResult, the Capacities map (a
// header and one group) and each run's ExecResult (a struct and one
// slab), nothing else.
func TestBufferSizesAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	g := hl2LikeGraph()
	for _, c := range g.Channels {
		c.Capacity = 0
	}
	share := trackEngines(t)
	run := func() {
		if r, err := BufferSizes(g, BufferOptions{TargetPeriod: 4000}); err != nil || !r.Met {
			t.Fatalf("BufferSizes: %+v, %v", r, err)
		}
	}
	run() // size the pooled engine
	runs := share().runs
	if allocs, want := testing.AllocsPerRun(50, run), float64(1+2+2*runs); allocs > want {
		t.Errorf("warm BufferSizes allocates %v objects in %d runs, want at most %v", allocs, runs, want)
	}
}

// TestReleasedEngineHoldsNoGraph: a pooled engine pins no graph it ran.
// After BufferSizes its working copy and its actor states no longer point
// into the caller's actors, patterns or channel lists, and the copy of
// actor state it keeps to restore a boundary holds nothing that could.
func TestReleasedEngineHoldsNoGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	g := hl2LikeGraph()
	for _, c := range g.Channels {
		c.Capacity = 0
	}
	if _, err := BufferSizes(g, BufferOptions{TargetPeriod: 4000}); err != nil {
		t.Fatal(err)
	}
	e := enginePool.Get().(*engine)
	defer enginePool.Put(e)
	if len(e.savedActors) == 0 || len(e.workSlab) == 0 {
		t.Skip("the pool handed out another engine")
	}
	if e.g != nil || !reflect.DeepEqual(e.work, Graph{}) {
		t.Errorf("released engine keeps a graph: %v, %+v", e.g, e.work)
	}
	for _, st := range e.actors {
		if st.wcet != nil || st.ins != nil || st.outs != nil {
			t.Fatalf("released engine keeps an actor's topology: %+v", st)
		}
	}
	saved := reflect.TypeOf(e.savedActors).Elem()
	for i := 0; i < saved.NumField(); i++ {
		if f := saved.Field(i); f.Type.Kind() < reflect.Int || f.Type.Kind() > reflect.Uint64 {
			t.Errorf("the actor state the engine keeps to restore a boundary holds %s %s, which may point into a graph", f.Name, f.Type)
		}
	}
	for _, c := range e.workSlab {
		if c.Prod != nil || c.Cons != nil {
			t.Fatalf("released engine keeps a channel's rates: %+v", c)
		}
	}
}
