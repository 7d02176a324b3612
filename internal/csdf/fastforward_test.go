package csdf

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// engineCounts sums the run counters of the engines trackEngines saw: how
// many runs the test caused, inside BufferSizes too, how many of them
// skipped at least one cycle, how many of those skipped from a restored
// observed-actor boundary, how many stream windows they skipped, and how
// many completion instants they simulated.
type engineCounts struct{ runs, forwarded, restored, streamed, simulated int64 }

// trackEngines swaps the engine pool for one that remembers every engine
// it makes, until the test ends, and returns a function that sums their
// counters. For tests and benchmarks that use engines from one goroutine.
func trackEngines(tb testing.TB) func() engineCounts {
	var made []*engine
	enginePool = sync.Pool{New: func() any {
		made = append(made, new(engine))
		return made[len(made)-1]
	}}
	tb.Cleanup(func() { enginePool = sync.Pool{New: func() any { return new(engine) }} })
	return func() (c engineCounts) {
		for _, e := range made {
			c.runs += e.runs
			c.forwarded += e.forwarded
			c.restored += e.restored
			c.streamed += e.streamed
			c.simulated += e.simulated
		}
		return c
	}
}

// stages chains the given actors with single-rate channels of one
// capacity (0 leaves them unbounded).
func stages(name string, capacity int64, wcets ...Pattern) *Graph {
	g := NewGraph(name)
	for i, w := range wcets {
		g.AddActor(fmt.Sprintf("s%d", i), w)
		if i > 0 {
			c := g.Connect(ActorID(i-1), ActorID(i), Rep(1, len(wcets[i-1])), Rep(1, len(w)), 0)
			g.Channel(c).Capacity = capacity
		}
	}
	return g
}

// settlingGraphs are graphs whose self-timed execution reaches its
// periodic phase within a few iterations, one family per way the recurring
// state can hide: each stresses a different component of the snapshot
// recurred compares, or one of the absolutes skipCycles has to respect.
func settlingGraphs() []*Graph {
	// Multi-rate with back-pressure: the slow consumer keeps both
	// producers blocked on space, with standing vetoes whose age differs
	// from boundary to boundary until the schedule has settled.
	multirate := NewGraph("multirate")
	a := multirate.AddActor("a", Vals(3))
	b := multirate.AddActor("b", Vals(2, 4))
	c := multirate.AddActor("c", Vals(5, 1, 9))
	multirate.Channel(multirate.Connect(a, b, Vals(2), Vals(1, 2), 0)).Capacity = 4
	multirate.Channel(multirate.Connect(b, c, Vals(3, 1), Vals(1, 2, 1), 0)).Capacity = 5

	// The same with a feedback edge that bounds how far a may lead c.
	feedback := NewGraph("feedback")
	a = feedback.AddActor("a", Vals(3))
	b = feedback.AddActor("b", Vals(2, 4))
	c = feedback.AddActor("c", Vals(5, 1, 9))
	feedback.Connect(a, b, Vals(2), Vals(1, 2), 0)
	feedback.Connect(b, c, Vals(3, 1), Vals(1, 2, 1), 0)
	feedback.Connect(c, a, Vals(1, 1, 1), Vals(2), 12)

	// Deep pipelines with the bottleneck at the far end: the source runs
	// ahead of the sink by as many iterations as the buffers between them
	// hold, so it reaches its firing cap that many iterations early.
	lead2 := stages("lead2", 1, Vals(2), Vals(3), Vals(2), Vals(11))
	lead4 := stages("lead4", 2, Vals(1), Vals(2), Vals(1), Vals(7, 9))
	// The two ways a leader can meet its cap at a boundary. In paced the
	// source is the slowest stage and fires back to back, as the pinned
	// source of a mapped graph does: it is executing at every boundary and
	// the last skipped cycle ends exactly on its cap. In idlelead the
	// source spends every boundary vetoed by the full channel behind the
	// bottleneck, two firings ahead of the observed actor: a skip onto its
	// cap would charge vetoes where the cap says silent, so it stays one
	// firing short and the last iterations are simulated.
	paced := stages("paced", 2, Vals(10), Vals(3), Vals(4))
	idlelead := stages("idlelead", 1, Vals(1), Vals(10), Vals(3))
	// A two-phase source makes an iteration two source firings, so the
	// source can be in the middle of an iteration at a boundary.
	halfway := stages("halfway", 1, Vals(2, 3), Vals(1, 1), Vals(6, 7))

	// Zero-WCET phases: several completions of one actor pending at one
	// instant, which busyUntil cannot tell apart.
	instant := NewGraph("instant")
	a = instant.AddActor("a", Vals(0, 0, 3))
	b = instant.AddActor("b", Vals(0))
	instant.Connect(a, b, Vals(2, 0, 1), Vals(1), 0)
	instant.Connect(b, a, Vals(1), Vals(1, 1, 1), 3)
	relay := stages("relay", 2, Vals(4), Vals(0), Vals(0, 0), Vals(3, 0))

	// Unbounded channels settle when the source is the slowest stage;
	// mixed keeps one bounded channel downstream of an unbounded one.
	unbounded := stages("unbounded", 0, Vals(10), Vals(3), Vals(2, 2), Vals(4))
	mixed := stages("mixed", 0, Vals(8), Vals(5), Vals(7), Vals(2))
	mixed.Channels[2].Capacity = 1

	// Actors no channel ties to the observed one keep their own time. In
	// lockstep the free actor's first three phases last as long as an
	// iteration, so successive boundaries differ in nothing but the phase
	// it is in. In crossing the two free actors gain and lose one time
	// unit per iteration on the observed one, so at one pair of boundaries
	// they trade places in the list of pending completions and nothing
	// else changes. In drifting the default source is such an actor, with
	// three cycles to an iteration by the balance of the other component:
	// boundaries differ only in how far it is into its iteration. In
	// outpaced the source begins two iterations for each one the observed
	// actor completes, so the latency grows to the end of the run.
	lockstep := NewGraph("lockstep")
	lockstep.AddActor("observed", Vals(4))
	lockstep.AddActor("free", Vals(4, 4, 4, 5))
	crossing := NewGraph("crossing")
	crossing.AddActor("observed", Vals(10))
	crossing.AddActor("gains", Vals(11))
	crossing.AddActor("loses", Vals(9))
	drifting := NewGraph("drifting")
	a = drifting.AddActor("observed", Vals(3))
	drifting.AddActor("source", Vals(2, 4))
	c = drifting.AddActor("feeder", Cat(Vals(5), Rep(1, 10)))
	drifting.Connect(c, a, Rep(3, 11), Vals(22), 0)
	outpaced := NewGraph("outpaced")
	a = outpaced.AddActor("source", Vals(3))
	b = outpaced.AddActor("slow", Vals(6))
	c = outpaced.AddActor("observed", Vals(1))
	outpaced.Channel(outpaced.Connect(a, outpaced.AddActor("drain", Vals(1)), Vals(1), Vals(1), 0)).Capacity = 1
	outpaced.Channel(outpaced.Connect(b, c, Vals(1), Vals(1), 0)).Capacity = 1

	return append([]*Graph{multirate, feedback, lead2, lead4, paced, idlelead, halfway, instant, relay, unbounded, mixed,
		lockstep, crossing, drifting, outpaced, hl2LikeGraph(), routedGraph()}, streamGraphs()...)
}

// streamGraphs are shaped like the bursts of a mapped graph, which the
// engine streams through: a pinned source emits a burst of tokens that
// per-token routers with FIFOs of 4 forward one by one, so within an
// iteration the instants repeat while only some channels' counts drift.
// In burst a consumer needs the whole burst. In crossed two bursts leave
// the source together but travel out of phase, so the instants repeat
// every two. In interrupted a long firing elsewhere completes mid-stream:
// a passive completion the skipped windows must stop short of. In capped
// the routers start from a backlog the source never lets run dry and run
// into their firing cap mid-stream, while the slow consumer keeps the
// observed actor far behind.
func streamGraphs() []*Graph {
	burst := NewGraph("burst")
	src := burst.AddActor("src", Vals(4000))
	cons := burst.AddActor("cons", Vals(300))
	burst.Channel(burst.Connect(routerChain(burst, src, 117, 7, 20), cons, Vals(1), Vals(117), 0)).Capacity = 117
	burst.Connect(cons, burst.AddActor("sink", Vals(1)), Vals(1), Vals(1), 0)

	crossed := NewGraph("crossed")
	src = crossed.AddActor("src", Vals(4000))
	delay := crossed.AddActor("delay", Vals(10))
	join := crossed.AddActor("join", Vals(50))
	crossed.Channel(crossed.Connect(src, delay, Vals(60), Vals(60), 0)).Capacity = 120
	crossed.Channel(crossed.Connect(routerChain(crossed, src, 60, 3, 20), join, Vals(1), Vals(60), 0)).Capacity = 60
	crossed.Channel(crossed.Connect(routerChain(crossed, delay, 60, 3, 20), join, Vals(1), Vals(60), 0)).Capacity = 60
	crossed.Connect(join, crossed.AddActor("sink", Vals(1)), Vals(1), Vals(1), 0)

	interrupted := NewGraph("interrupted")
	src = interrupted.AddActor("src", Vals(4000))
	slow := interrupted.AddActor("slow", Vals(700))
	cons = interrupted.AddActor("cons", Vals(100))
	interrupted.Channel(interrupted.Connect(routerChain(interrupted, src, 117, 4, 20), cons, Vals(1), Vals(117), 0)).Capacity = 117
	interrupted.Channel(interrupted.Connect(src, slow, Vals(1), Vals(1), 0)).Capacity = 2
	interrupted.Channel(interrupted.Connect(slow, cons, Vals(1), Vals(1), 0)).Capacity = 1
	interrupted.Connect(cons, interrupted.AddActor("sink", Vals(1)), Vals(1), Vals(1), 0)

	capped := NewGraph("capped")
	src = capped.AddActor("src", Vals(2000))
	cons = capped.AddActor("cons", Vals(5000))
	backlog := len(capped.Channels)
	capped.Connect(routerChain(capped, src, 117, 3, 20), cons, Vals(1), Vals(117), 0)
	capped.Channels[backlog].Capacity, capped.Channels[backlog].Initial = 0, 14*117
	capped.Connect(cons, capped.AddActor("sink", Vals(1)), Vals(1), Vals(1), 0)

	return []*Graph{burst, crossed, interrupted, capped}
}

// routerChain sends from's burst of size tokens through hops per-token
// routers of the given WCET, as BuildMappedGraph does, and returns the
// last router.
func routerChain(g *Graph, from ActorID, size int64, hops int, wcet int64) ActorID {
	prev, rate := from, Vals(size)
	for h := 0; h < hops; h++ {
		r := g.AddActor(fmt.Sprintf("R%d#%d", from, h), Vals(wcet))
		g.Channel(g.Connect(prev, r, rate, Vals(1), 0)).Capacity = max(4, 2*rate.Max())
		prev, rate = r, Vals(1)
	}
	return prev
}

// routedGraph has the shape BuildMappedGraph gives a mapped application:
// a pinned source whose WCET is the period emits a burst of tokens, which
// per-token router actors with FIFOs of 4 forward to a consumer and a
// sink, all of it draining well within the period. Its state recurs at
// the source's iteration starts one drain before it recurs at the sink's
// boundaries.
func routedGraph() *Graph {
	g := NewGraph("routed")
	prev, rate := g.AddActor("src", Vals(200)), Vals(8)
	for h := 0; h < 3; h++ {
		r := g.AddActor(fmt.Sprintf("R#%d", h), Vals(5))
		g.Channel(g.Connect(prev, r, rate, Vals(1), 0)).Capacity = max(4, 2*rate.Max())
		prev, rate = r, Vals(1)
	}
	cons := g.AddActor("cons", Vals(12, 9))
	g.Channel(g.Connect(prev, cons, rate, Vals(4, 4), 0)).Capacity = 4
	g.Channel(g.Connect(cons, g.AddActor("sink", Vals(1)), Vals(0, 1), Vals(1), 0)).Capacity = 1
	return g
}

// TestFastForwardDifferential holds runs that skip cycles to the reference
// engine, which simulates every firing: at the step-4 horizon, a shorter
// and a longer one, and at event bounds that run out inside the span the
// engine skips and just before the run's end.
func TestFastForwardDifferential(t *testing.T) {
	share := trackEngines(t)
	for _, g := range settlingGraphs() {
		checkHorizons(t, g)
	}
	requireForwarded(t, share, 50)
}

// checkHorizons holds g's runs to the reference at three horizons, each
// run to its end and cut short by event bounds.
func checkHorizons(t *testing.T, g *Graph) {
	t.Helper()
	for _, horizon := range [][2]int{{1, 3}, {4, 8}, {10, 30}} {
		opts := ExecOptions{WarmupIterations: horizon[0], MeasureIterations: horizon[1], Observe: -1, Source: -1}
		if r := checkExecute(t, g, opts); r == nil || r.Deadlocked {
			t.Fatalf("%s does not run to its horizon: %+v", g.Name, r)
		}
		lo := refInstants(g, opts)
		for _, bound := range []int{lo / 3, lo / 2, lo - lo/4, lo - 1, lo} {
			if bound > 0 {
				opts.MaxEvents = bound
				checkExecute(t, g, opts)
			}
		}
	}
}

// refInstants returns the number of completion instants the reference
// simulates on the way to the horizon: the fewest events that let it
// finish.
func refInstants(g *Graph, opts ExecOptions) int {
	lo, hi := 1, 1<<20
	for lo < hi {
		opts.MaxEvents = lo + (hi-lo)/2
		if _, err := executeRef(g, opts); err != nil {
			lo = opts.MaxEvents + 1
		} else {
			hi = opts.MaxEvents
		}
	}
	return lo
}

// TestFastForwardSimulatedIterations pins what recurrence at the source's
// iteration starts buys step 4, in iterations of 12 simulated. A mapped
// graph's pinned source fires back to back, so the state right after it
// begins an iteration recurs one pipeline drain before the state at the
// sink's boundaries does, and the skip starts from the sink boundary
// inside that cycle: routed, the mapped shape, simulates about one
// iteration, and paced 1.33 where it simulated 2. The HIPERLAN/2-like
// graph's first channel holds two source firings, so its source reaches
// its cap a cycle before the sink and the last cycles are simulated: 2.71
// where it simulated 3. In burst the 117 tokens of an iteration stream
// through seven routers, and the one iteration simulated skips its stream:
// 0.17, where cycle skipping alone simulated 1.01. The slack, an instant
// plus a hundredth, covers the transient's first iteration taking a few
// instants more than the rest.
func TestFastForwardSimulatedIterations(t *testing.T) {
	iterations := map[string]float64{"routed": 1.08, "paced": 1.34, hl2LikeGraph().Name: 2.72, "burst": 0.18}
	for _, g := range settlingGraphs() {
		want, pinned := iterations[g.Name]
		if !pinned {
			continue
		}
		delete(iterations, g.Name)
		share := trackEngines(t)
		opts := DefaultExecOptions()
		if r, err := g.Execute(opts); err != nil || r.Deadlocked {
			t.Fatalf("%s: Execute: %+v, %v", g.Name, r, err)
		}
		simulated := share().simulated
		total := int64(refInstants(g, opts))
		t.Logf("%s: simulated %d of %d instants, %.2f of 12 iterations", g.Name, simulated, total, 12*float64(simulated)/float64(total))
		if limit := int64(float64(total)*want/12) + total/100 + 1; simulated > limit {
			t.Errorf("%s: simulated %d of the reference's %d completion instants, want at most %d",
				g.Name, simulated, total, limit)
		}
	}
	if len(iterations) > 0 {
		t.Errorf("not among the settling graphs: %v", iterations)
	}
}

// TestFastForwardRestoresToSinkBoundary: on the routed graph every run
// confirms its cycle at the source's iteration starts, returns to the
// sink boundary inside that cycle and skips from there, and the reference
// agrees field for field at every horizon and event bound
// TestFastForwardDifferential uses.
func TestFastForwardRestoresToSinkBoundary(t *testing.T) {
	g := routedGraph()
	share := trackEngines(t)
	checkExecute(t, g, DefaultExecOptions())
	if c := share(); c.runs != 1 || c.forwarded != 1 || c.restored != 1 {
		t.Fatalf("step-4 run: %+v, want one run that restored a boundary and skipped from it", c)
	}
	checkHorizons(t, g)
	if c := share(); c.restored*100 < c.runs*50 {
		t.Errorf("%d of %d runs restored a boundary, want at least half", c.restored, c.runs)
	}
}

// TestFastForwardDeclinesGroups: a group's arbitration compares its
// members' firing counts, absolutes no snapshot holds.
func TestFastForwardDeclinesGroups(t *testing.T) {
	share := trackEngines(t)
	g := NewGraph("grouped")
	a := g.AddActor("a", Vals(2))
	b := g.AddActor("b", Vals(3))
	c := g.AddActor("c", Vals(1))
	g.Channel(g.Connect(a, c, Vals(1), Vals(1), 0)).Capacity = 2
	g.Channel(g.Connect(b, c, Vals(1), Vals(1), 0)).Capacity = 2
	opts := DefaultExecOptions()
	opts.ExclusiveGroups = [][]ActorID{{a, b}}
	checkExecute(t, g, opts)
	if c := share(); c.forwarded != 0 || c.streamed != 0 {
		t.Errorf("of %d runs with a group, %d skipped cycles and %d stream windows", c.runs, c.forwarded, c.streamed)
	}
}

// TestEngineStateIsClassified fails when the engine gains a field nobody
// has decided how fast-forwarding treats. Skipping cycles, and skipping
// stream windows, is exact only because every piece of run state is one
// of: fixed for the run, compared between boundaries or windows, implied
// by what is compared, an absolute the skip stops short of, a counter the
// skip multiplies, or a count that drifts linearly within a stream whose
// skip stops before a threshold.
func TestEngineStateIsClassified(t *testing.T) {
	const (
		fixed    = "topology or options: set by load or at the start of run, constant during it"
		compared = "relative state: in the snapshot recurred compares"
		implied  = "relative state implied by the compared fields at a settled instant (see recurred)"
		guarded  = "absolute: skipCycles stops where going further would change behaviour"
		additive = "counter: grows by the same amount every cycle, skipCycles multiplies it"
		declined = "group state: runs that use it never fast-forward"
		scratch  = "memory for load, the snapshots or the tests; run does not read it"
		restore  = "a copy of the state at the last observed-actor boundary; run reads it only to return there (see restore)"
		recorded = "in a stream window's record, which confirmStream compares at its end (see record)"
		drifts   = "drifts linearly in a stream window; confirmStream stops k before a test of it changes its outcome"
		stream   = "stream fast-forward bookkeeping: the signatures, the open window and its record; run resets it, and a cycle skip clears it"
	)
	classes := map[reflect.Type]map[string]string{
		reflect.TypeOf(actorState{}): {
			"ins": fixed, "outs": fixed, "wcet": fixed, "perIter": fixed,
			"firingCap": fixed, "group": fixed,
			"actorRun": "the state firings change, classified below",
		},
		reflect.TypeOf(actorRun{}): {
			"fired":      guarded + "; " + additive + "; " + recorded,
			"startPhase": compared + "; " + recorded + ", as fired modulo the phases",
			"donePhase":  implied,
			"busyUntil":  implied + "; skipCycles reads it to place the firing cap; " + recorded,
			"busyTime":   additive + "; " + recorded,
			"verdict":    implied + "; " + recorded,
			"pending":    implied + ": the actor's completions in the heap; " + recorded,
			"evalPass":   implied + ": each snapshot and each record charges the standing veto, so it is pass+1 there",
		},
		reflect.TypeOf(channelState{}): {
			"capacity": fixed,
			"tokens":   compared + "; " + recorded + "; " + drifts,
			"occupied": implied + "; " + drifts,
		},
		reflect.TypeOf(engine{}): {
			"g": fixed, "actors": fixed, "channels": fixed, "edges": fixed,
			"cycles": scratch, "balance": scratch, "queue": scratch + "; lists the actors a stream window recorded",
			"actorMem": scratch + "; holds a stream window's actor records", "chanMem": "holds blocks and a stream window's channel records",
			"groups": declined, "groupActive": declined,
			"dirty":  implied,
			"pass":   additive,
			"blocks": additive + "; " + recorded,
			"now":    additive,
			"heap":   compared,
			"source": fixed, "observe": fixed,
			"sourceIn": compared, "observeIn": compared,
			"iterDone": additive, "iterSrcStart": additive + "; its open tail is " + compared,
			"sinkSnaps": scratch, "sourceSnaps": scratch,
			"savedActors": restore, "savedChannels": restore, "savedHeap": restore,
			"instHash": stream, "sigs": stream, "lastNow": stream, "lastPass": stream, "signed": stream, "matched": stream,
			"window": stream, "windowLeft": stream, "fails": stream, "dry": stream, "cooldown": stream,
			"recorded": stream, "then": stream, "thenPass": stream, "thenEvents": stream,
			"runs": scratch, "forwarded": scratch, "restored": scratch, "streamed": scratch, "simulated": scratch,
			"work": fixed, "workSlab": fixed, "workChans": fixed, "free": scratch,
		},
	}
	for typ, class := range classes {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if class[name] == "" {
				t.Errorf("%s.%s is not classified: decide how skipCycles and confirmStream treat it, then add it here", typ.Name(), name)
			}
			delete(class, name)
		}
		for name := range class {
			t.Errorf("%s.%s is classified but no longer exists", typ.Name(), name)
		}
	}
}
