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
	sizing := BufferOptions{TargetPeriod: 4000, Tighten: true}
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
