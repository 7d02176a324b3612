package csdf

import (
	"math/rand"
	"strings"
	"testing"
)

func mustExec(t *testing.T, g *Graph, opts ExecOptions) *ExecResult {
	t.Helper()
	r, err := g.Execute(opts)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return r
}

func TestExecutePipelinePeriod(t *testing.T) {
	// Unit-rate chain: the steady-state period equals the slowest actor.
	g, _, _, _ := pipeline(t)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 8, MeasureIterations: 16, Observe: -1, Source: -1})
	if r.Deadlocked {
		t.Fatalf("deadlocked: %s", r.DeadlockReport)
	}
	if r.Period != 20 {
		t.Errorf("Period = %v, want 20 (slowest actor)", r.Period)
	}
}

func TestExecuteLatencyPipeline(t *testing.T) {
	g, _, _, _ := pipeline(t)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 2, MeasureIterations: 4, Observe: -1, Source: -1})
	// End-to-end latency is at least the sum of one firing of each actor
	// (10+20+5) and bounded by a few periods in steady state.
	if r.Latency < 35 {
		t.Errorf("Latency = %d, want >= 35", r.Latency)
	}
}

func TestExecuteMultiratePeriod(t *testing.T) {
	// a (wcet 7) fires 3× per iteration, b (wcet 10) fires 2×: the
	// bottleneck is a with 21 time units of work per iteration vs b's 20.
	g := NewGraph("multirate")
	a := g.AddActor("a", Vals(7))
	b := g.AddActor("b", Vals(10))
	g.Connect(a, b, Vals(2), Vals(3), 0)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 8, MeasureIterations: 16, Observe: b, Source: a})
	if r.Period != 21 {
		t.Errorf("Period = %v, want 21", r.Period)
	}
}

func TestExecuteBoundedChannelBackPressure(t *testing.T) {
	// With capacity 1 between a fast producer and a slow consumer, the
	// producer is throttled to the consumer's pace.
	g := NewGraph("bp")
	a := g.AddActor("fast", Vals(1))
	b := g.AddActor("slow", Vals(50))
	ch := g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Channel(ch).Capacity = 1
	r := mustExec(t, g, ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: b, Source: a})
	if r.Deadlocked {
		t.Fatalf("deadlocked: %s", r.DeadlockReport)
	}
	if r.Period != 50 {
		t.Errorf("Period = %v, want 50", r.Period)
	}
	if r.FullBlocks[ch] == 0 {
		t.Error("expected full-channel blocking to be recorded")
	}
}

func TestExecuteDeadlockDetected(t *testing.T) {
	// Two actors in a cycle with no initial tokens deadlock immediately.
	g := NewGraph("dl")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Connect(b, a, Vals(1), Vals(1), 0)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 1, MeasureIterations: 1, Observe: a, Source: a})
	if !r.Deadlocked {
		t.Fatal("expected deadlock")
	}
	if !strings.Contains(r.DeadlockReport, "blocked") {
		t.Errorf("DeadlockReport = %q", r.DeadlockReport)
	}
}

func TestExecuteCycleWithInitialTokens(t *testing.T) {
	// The same cycle with one initial token rotates forever; period is the
	// sum of both WCETs because the single token serialises the actors.
	g := NewGraph("ring")
	a := g.AddActor("a", Vals(3))
	b := g.AddActor("b", Vals(4))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Connect(b, a, Vals(1), Vals(1), 1)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: a, Source: a})
	if r.Deadlocked {
		t.Fatalf("deadlocked: %s", r.DeadlockReport)
	}
	if r.Period != 7 {
		t.Errorf("Period = %v, want 7", r.Period)
	}
}

func TestExecutePhasedActor(t *testing.T) {
	// An actor whose cycle is read(2) / compute(10) / write(1) pipelined
	// against a 1-token-per-5 source; throughput limited by the 13-unit
	// actor cycle (3 phases serialised on one actor).
	g := NewGraph("phases")
	src := g.AddActor("src", Vals(5))
	w := g.AddActor("worker", Vals(2, 10, 1))
	g.Connect(src, w, Vals(1), Vals(1, 0, 0), 0)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: w, Source: src})
	if r.Period != 13 {
		t.Errorf("Period = %v, want 13", r.Period)
	}
}

func TestExecuteUtilisation(t *testing.T) {
	g, a, b, _ := pipeline(t)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 8, MeasureIterations: 16, Observe: -1, Source: -1})
	// b (wcet 20) is the bottleneck: near 100% busy; a (wcet 10) near 50%.
	if u := r.Utilisation(b); u < 0.8 {
		t.Errorf("Utilisation(b) = %v, want >= 0.8", u)
	}
	if ua, ub := r.Utilisation(a), r.Utilisation(b); ua >= ub {
		t.Errorf("Utilisation(a)=%v should be below Utilisation(b)=%v", ua, ub)
	}
}

func TestExecuteObserveDefaultsToSink(t *testing.T) {
	g, _, _, _ := pipeline(t)
	r := mustExec(t, g, ExecOptions{WarmupIterations: 2, MeasureIterations: 2, Observe: -1, Source: -1})
	if r.Iterations != 4 {
		t.Errorf("Iterations = %d, want 4", r.Iterations)
	}
}

func TestExecuteInvalidGraph(t *testing.T) {
	g := NewGraph("bad")
	g.AddActor("a", Pattern{})
	if _, err := g.Execute(ExecOptions{}); err == nil {
		t.Error("Execute accepted invalid graph")
	}
}

func TestExecuteMoreBufferNeverSlower(t *testing.T) {
	// Property: on random bounded chains, doubling every capacity never
	// increases the steady-state period (monotonicity of self-timed
	// execution in buffer space).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		mk := func(mult int64) *Graph {
			g := NewGraph("mono")
			r := rand.New(rand.NewSource(int64(trial)*977 + 13)) // same WCETs per variant
			ids := make([]ActorID, n)
			for i := range ids {
				ids[i] = g.AddActor("x", Vals(int64(1+r.Intn(20))))
			}
			for i := 0; i+1 < n; i++ {
				ch := g.Connect(ids[i], ids[i+1], Vals(1), Vals(1), 0)
				g.Channel(ch).Capacity = 2 * mult
			}
			return g
		}
		small, err := mk(1).Execute(ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1})
		if err != nil {
			t.Fatal(err)
		}
		big, err := mk(4).Execute(ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1})
		if err != nil {
			t.Fatal(err)
		}
		if big.Period > small.Period+1e-9 {
			t.Fatalf("trial %d: bigger buffers slower: %v > %v", trial, big.Period, small.Period)
		}
	}
}

func TestExecuteExclusiveGroups(t *testing.T) {
	// Two independent workers fed by one source. Unconstrained they run
	// in parallel (period 10); sharing a tile they serialise (period 20).
	build := func() *Graph {
		g := NewGraph("excl")
		src := g.AddActor("src", Vals(1))
		w1 := g.AddActor("w1", Vals(10))
		w2 := g.AddActor("w2", Vals(10))
		join := g.AddActor("join", Vals(1))
		g.Connect(src, w1, Vals(1), Vals(1), 0)
		g.Connect(src, w2, Vals(1), Vals(1), 0)
		g.Connect(w1, join, Vals(1), Vals(1), 0)
		g.Connect(w2, join, Vals(1), Vals(1), 0)
		return g
	}
	par, err := build().Execute(ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: 3, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := build().Execute(ExecOptions{
		WarmupIterations: 4, MeasureIterations: 8, Observe: 3, Source: 0,
		ExclusiveGroups: [][]ActorID{{1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Period != 10 {
		t.Errorf("parallel period = %v, want 10", par.Period)
	}
	if ser.Period != 20 {
		t.Errorf("serialised period = %v, want 20", ser.Period)
	}
}

func TestExecuteExclusiveGroupSingleton(t *testing.T) {
	// A group of one changes nothing: actors never overlap themselves.
	g, _, _, _ := pipeline(t)
	free := mustExec(t, g, ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1})
	boxed, err := g.Execute(ExecOptions{
		WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1,
		ExclusiveGroups: [][]ActorID{{0}, {1}, {2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if free.Period != boxed.Period {
		t.Errorf("singleton groups changed period: %v vs %v", free.Period, boxed.Period)
	}
}
