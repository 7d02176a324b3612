package csdf

import (
	"math/rand"
	"testing"
)

func TestBufferSizesSimpleChain(t *testing.T) {
	// fast → slow: small buffers suffice because the consumer is the
	// bottleneck either way.
	g := NewGraph("chain")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(10))
	ch := g.Connect(a, b, Vals(1), Vals(1), 0)
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("target not met: period %v", res.Exec.Period)
	}
	if res.Capacities[ch] < 1 || res.Capacities[ch] > 3 {
		t.Errorf("capacity = %d, want small (1..3)", res.Capacities[ch])
	}
	_ = a
	_ = b
}

func TestBufferSizesSingleBufferOverlaps(t *testing.T) {
	// Under consume-at-start semantics a unit-rate producer/consumer pair
	// overlaps already at capacity 1: the consumer frees the slot the
	// moment it starts. Sizing must not inflate the buffer.
	g := NewGraph("overlap")
	a := g.AddActor("a", Vals(10))
	b := g.AddActor("b", Vals(10))
	ch := g.Connect(a, b, Vals(1), Vals(1), 0)
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("target not met: period %v", res.Exec.Period)
	}
	if res.Capacities[ch] != 1 {
		t.Errorf("capacity = %d, want 1", res.Capacities[ch])
	}
}

func TestBufferSizesGrowthBeyondLowerBound(t *testing.T) {
	// a produces bursts of 2 every 10 units; b drains one token per 5
	// units. At the lower-bound capacity (2) a cannot start its next
	// firing until b has drained the whole previous burst, so the
	// iteration period is 20. Capacity 4 lets a work ahead and reach the
	// rate-optimal period 10. The search must discover that growth.
	g := NewGraph("burst2")
	a := g.AddActor("a", Vals(10))
	b := g.AddActor("b", Vals(5))
	ch := g.Connect(a, b, Vals(2), Vals(1), 0)
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("target not met: period %v", res.Exec.Period)
	}
	if res.Capacities[ch] < 3 {
		t.Errorf("capacity = %d, want > lower bound 2", res.Capacities[ch])
	}
}

func TestBufferSizesComputationBound(t *testing.T) {
	// An actor slower than the target period can never meet it; the
	// search must terminate and report Met=false rather than grow forever.
	g := NewGraph("slow")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(100))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Error("computation-bound graph reported as meeting target")
	}
}

func TestBufferSizesRespectsFixedCapacity(t *testing.T) {
	// A pre-bounded channel is a hard constraint: it keeps its capacity.
	g := NewGraph("fixed")
	a := g.AddActor("a", Vals(10))
	b := g.AddActor("b", Vals(10))
	c := g.AddActor("c", Vals(10))
	fixed := g.Connect(a, b, Vals(1), Vals(1), 0)
	free := g.Connect(b, c, Vals(1), Vals(1), 0)
	g.Channel(fixed).Capacity = 1
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, sized := res.Capacities[fixed]; sized {
		t.Error("fixed channel was resized")
	}
	if res.Capacities[free] == 0 {
		t.Error("free channel was not sized")
	}
	if !res.Met {
		t.Errorf("period %v, want <= 20", res.Exec.Period)
	}
}

func TestBufferSizesMultirate(t *testing.T) {
	// Producer emits bursts of 80, consumer drains 8 at a time: capacity
	// must hold at least one burst.
	g := NewGraph("burst")
	a := g.AddActor("a", Vals(100))
	b := g.AddActor("b", Vals(9))
	ch := g.Connect(a, b, Vals(80), Vals(8), 0)
	res, err := BufferSizes(g, BufferOptions{TargetPeriod: 101})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("target not met: period %v (deadlock=%v)", res.Exec.Period, res.Exec.Deadlocked)
	}
	if res.Capacities[ch] < 80 {
		t.Errorf("capacity = %d, want >= 80 (one burst)", res.Capacities[ch])
	}
}

func TestBufferSizesStructuralDeadlock(t *testing.T) {
	// A token-free cycle deadlocks regardless of buffering: hard error.
	g := NewGraph("dl")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	g.Connect(a, b, Vals(1), Vals(1), 0)
	g.Connect(b, a, Vals(1), Vals(1), 0)
	if _, err := BufferSizes(g, BufferOptions{TargetPeriod: 10}); err == nil {
		t.Error("structural deadlock not reported")
	}
}

func TestBufferSizesDoNotMutateInput(t *testing.T) {
	g := NewGraph("mut")
	a := g.AddActor("a", Vals(1))
	b := g.AddActor("b", Vals(1))
	ch := g.Connect(a, b, Vals(1), Vals(1), 0)
	if _, err := BufferSizes(g, BufferOptions{TargetPeriod: 2}); err != nil {
		t.Fatal(err)
	}
	if g.Channel(ch).Capacity != 0 {
		t.Error("input graph capacity mutated")
	}
}

func TestBufferSizesSufficiencyProperty(t *testing.T) {
	// Property: on random chains, installing the computed capacities into
	// the graph yields an execution that meets the target whenever the
	// sizing claimed Met.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		g := NewGraph("prop")
		ids := make([]ActorID, n)
		var slowest int64
		for i := range ids {
			w := int64(1 + rng.Intn(15))
			if w > slowest {
				slowest = w
			}
			ids[i] = g.AddActor("x", Vals(w))
		}
		var chans []ChannelID
		for i := 0; i+1 < n; i++ {
			chans = append(chans, g.Connect(ids[i], ids[i+1], Vals(1), Vals(1), 0))
		}
		target := float64(slowest) * 1.5
		res, err := BufferSizes(g, BufferOptions{TargetPeriod: target})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatalf("trial %d: unit-rate chain must always meet 1.5× slowest; period %v", trial, res.Exec.Period)
		}
		for _, cid := range chans {
			g.Channel(cid).Capacity = res.Capacities[cid]
		}
		check, err := g.Execute(ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1})
		if err != nil {
			t.Fatal(err)
		}
		if check.Deadlocked || check.Period > target {
			t.Fatalf("trial %d: capacities insufficient: period %v > %v", trial, check.Period, target)
		}
	}
}
