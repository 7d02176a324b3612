package csdf

import (
	"container/heap"
	"fmt"
	"math/big"
	"strings"
)

type refEvent struct {
	time  int64
	seq   int // tie-break for determinism
	actor ActorID
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// executeRef is the engine Execute replaced, kept verbatim as the oracle
// of the differential tests: container/heap events, a full scan of every
// actor on every pass, map-backed veto counters. Only its result
// construction changed, to fill the dense veto slices ExecResult has now.
func executeRef(g *Graph, opts ExecOptions) (*ExecResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rv, err := repetitionRef(g)
	if err != nil {
		return nil, err
	}
	if opts.WarmupIterations == 0 && opts.MeasureIterations == 0 &&
		opts.Observe == 0 && opts.Source == 0 && opts.MaxEvents == 0 {
		groups := opts.ExclusiveGroups
		opts = DefaultExecOptions()
		opts.ExclusiveGroups = groups
	}
	if opts.WarmupIterations <= 0 && opts.MeasureIterations <= 0 {
		d := DefaultExecOptions()
		opts.WarmupIterations, opts.MeasureIterations = d.WarmupIterations, d.MeasureIterations
	}
	if opts.MeasureIterations <= 0 {
		opts.MeasureIterations = 1
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 20_000_000
	}
	observe := opts.Observe
	if observe < 0 {
		observe = 0
		for _, a := range g.Actors {
			if len(g.out[a.ID]) == 0 {
				observe = a.ID
				break
			}
		}
	}
	source := opts.Source
	if source < 0 {
		source = 0
		for _, a := range g.Actors {
			if len(g.in[a.ID]) == 0 {
				source = a.ID
				break
			}
		}
	}

	n := len(g.Actors)
	totalIters := int64(opts.WarmupIterations + opts.MeasureIterations)
	firingCap := make([]int64, n) // stop actors that ran far enough ahead
	perIter := make([]int64, n)
	for i := range g.Actors {
		perIter[i] = rv.Cycles[i] * int64(g.Actors[i].Phases())
		firingCap[i] = (totalIters + 1) * perIter[i]
	}

	tokens := make([]int64, len(g.Channels))
	pending := make([]int64, len(g.Channels)) // space reserved by in-flight firings
	for i, c := range g.Channels {
		tokens[i] = c.Initial
	}
	fired := make([]int64, n)     // started firings
	done := make([]int64, n)      // completed firings
	busyUntil := make([]int64, n) // next time the actor is idle
	busyTime := make([]int64, n)
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, group := range opts.ExclusiveGroups {
		for _, a := range group {
			groupOf[a] = gi
		}
	}
	groupActive := make([]int, len(opts.ExclusiveGroups))
	res := &ExecResult{}
	emptyBlocks := make(map[ChannelID]int64)
	fullBlocks := make(map[ChannelID]int64)

	// Iteration bookkeeping for period and latency.
	iterDone := make([]int64, 0, totalIters)     // completion time of observed actor's iterations
	iterSrcStart := make([]int64, 0, totalIters) // start time of source's first firing per iteration

	var h refHeap
	seq := 0
	now := int64(0)
	events := 0

	canFire := func(a ActorID) bool {
		if fired[a] >= firingCap[a] || busyUntil[a] > now {
			return false
		}
		if gi := groupOf[a]; gi >= 0 && groupActive[gi] > 0 {
			return false
		}
		phase := fired[a] % int64(g.Actors[a].Phases())
		for _, cid := range g.in[a] {
			c := g.Channels[cid]
			if tokens[cid] < c.Cons.At(phase) {
				emptyBlocks[cid]++
				return false
			}
		}
		for _, cid := range g.out[a] {
			c := g.Channels[cid]
			if c.Capacity > 0 && tokens[cid]+pending[cid]+c.Prod.At(phase) > c.Capacity {
				fullBlocks[cid]++
				return false
			}
		}
		return true
	}
	start := func(a ActorID) {
		phase := fired[a] % int64(g.Actors[a].Phases())
		if a == source && fired[a]%perIter[a] == 0 {
			iterSrcStart = append(iterSrcStart, now)
		}
		for _, cid := range g.in[a] {
			tokens[cid] -= g.Channels[cid].Cons.At(phase)
		}
		for _, cid := range g.out[a] {
			pending[cid] += g.Channels[cid].Prod.At(phase)
		}
		w := g.Actors[a].WCET.At(phase)
		fired[a]++
		busyUntil[a] = now + w
		busyTime[a] += w
		if gi := groupOf[a]; gi >= 0 {
			groupActive[gi]++
		}
		heap.Push(&h, refEvent{time: now + w, seq: seq, actor: a})
		seq++
	}
	finish := func(a ActorID) {
		phase := done[a] % int64(g.Actors[a].Phases())
		for _, cid := range g.out[a] {
			p := g.Channels[cid].Prod.At(phase)
			pending[cid] -= p
			tokens[cid] += p
		}
		done[a]++
		if gi := groupOf[a]; gi >= 0 {
			groupActive[gi]--
		}
		if a == observe && done[a]%perIter[a] == 0 {
			iterDone = append(iterDone, now)
		}
	}

	for {
		// Start every actor that can fire; consuming tokens can free
		// bounded-channel space, so iterate to a fixpoint. Within an
		// exclusive group, the ready member with the fewest started
		// firings goes first (round-robin fairness): a fixed scan order
		// would let one member monopolise the group.
		for {
			progressed := false
			for a := 0; a < n; a++ {
				if groupOf[a] >= 0 {
					continue
				}
				for canFire(ActorID(a)) {
					start(ActorID(a))
					progressed = true
				}
			}
			for gi, group := range opts.ExclusiveGroups {
				if groupActive[gi] > 0 {
					continue
				}
				best := ActorID(-1)
				for _, a := range group {
					if canFire(a) && (best < 0 || fired[a] < fired[best]) {
						best = a
					}
				}
				if best >= 0 {
					start(best)
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		if int64(len(iterDone)) >= totalIters {
			break
		}
		if h.Len() == 0 {
			res.Deadlocked = true
			res.DeadlockReport = refDeadlockReport(g, fired, tokens, firingCap)
			break
		}
		ev := heap.Pop(&h).(refEvent)
		now = ev.time
		finish(ev.actor)
		// Drain all completions at the same instant before restarting.
		for h.Len() > 0 && h[0].time == now {
			ev = heap.Pop(&h).(refEvent)
			finish(ev.actor)
		}
		events++
		if events > opts.MaxEvents {
			return nil, fmt.Errorf("csdf: execution of %q exceeded %d events; graph may not settle", g.Name, opts.MaxEvents)
		}
	}

	res.Iterations = len(iterDone)
	res.Time = now
	res.BusyTime = busyTime
	res.EmptyBlocks = make([]int64, len(g.Channels))
	res.FullBlocks = make([]int64, len(g.Channels))
	for cid, v := range emptyBlocks {
		res.EmptyBlocks[cid] = v
	}
	for cid, v := range fullBlocks {
		res.FullBlocks[cid] = v
	}
	if len(iterDone) > opts.WarmupIterations {
		m := len(iterDone) - 1
		w := opts.WarmupIterations
		if w >= m {
			w = 0
		}
		res.Period = float64(iterDone[m]-iterDone[w]) / float64(m-w)
	}
	for i := 0; i < len(iterDone) && i < len(iterSrcStart); i++ {
		if lat := iterDone[i] - iterSrcStart[i]; lat > res.Latency {
			res.Latency = lat
		}
	}
	return res, nil
}

func refDeadlockReport(g *Graph, fired, tokens, cap []int64) string {
	var b strings.Builder
	b.WriteString("deadlock: ")
	for a, actor := range g.Actors {
		if fired[a] >= cap[a] {
			continue
		}
		phase := fired[a] % int64(actor.Phases())
		var why []string
		for _, cid := range g.in[a] {
			c := g.Channels[cid]
			if need := c.Cons.At(phase); tokens[cid] < need {
				why = append(why, fmt.Sprintf("needs %d tokens on %s→%s (has %d)",
					need, g.Actors[c.Src].Name, actor.Name, tokens[cid]))
			}
		}
		for _, cid := range g.out[a] {
			c := g.Channels[cid]
			if c.Capacity > 0 && tokens[cid]+c.Prod.At(phase) > c.Capacity {
				why = append(why, fmt.Sprintf("needs %d space on %s→%s (cap %d, %d full)",
					c.Prod.At(phase), actor.Name, g.Actors[c.Dst].Name, c.Capacity, tokens[cid]))
			}
		}
		if len(why) > 0 {
			fmt.Fprintf(&b, "%s blocked (%s); ", actor.Name, strings.Join(why, ", "))
		}
	}
	return b.String()
}

// repetitionRef is the math/big solver Repetition replaced.
func repetitionRef(g *Graph) (*RepetitionVector, error) {
	n := len(g.Actors)
	if n == 0 {
		return &RepetitionVector{}, nil
	}
	rat := make([]*big.Rat, n) // nil = unvisited
	// Breadth-first propagation of rational cycle counts per weakly
	// connected component, then scaling to the smallest integer vector.
	for start := 0; start < n; start++ {
		if rat[start] != nil {
			continue
		}
		rat[start] = big.NewRat(1, 1)
		queue := []ActorID{ActorID(start)}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			visit := func(c *Channel) error {
				ps, cs := c.Prod.Sum(), c.Cons.Sum()
				if ps == 0 || cs == 0 {
					return fmt.Errorf("csdf: channel %d (%s→%s) has a zero total rate; graph cannot iterate",
						c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
				}
				var from, to ActorID
				var num, den int64
				if c.Src == a {
					from, to = c.Src, c.Dst
					num, den = ps, cs // cycles[dst] = cycles[src] * ps/cs
				} else {
					from, to = c.Dst, c.Src
					num, den = cs, ps
				}
				want := new(big.Rat).Mul(rat[from], big.NewRat(num, den))
				if rat[to] == nil {
					rat[to] = want
					queue = append(queue, to)
				} else if rat[to].Cmp(want) != 0 {
					return fmt.Errorf("csdf: inconsistent rates at channel %d (%s→%s): graph has no repetition vector",
						c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
				}
				return nil
			}
			for _, cid := range g.out[a] {
				if err := visit(g.Channels[cid]); err != nil {
					return nil, err
				}
			}
			for _, cid := range g.in[a] {
				if err := visit(g.Channels[cid]); err != nil {
					return nil, err
				}
			}
		}
	}
	// Scale to the least common denominator, then divide by the overall
	// GCD so the vector is the canonical smallest one.
	lcm := big.NewInt(1)
	for _, r := range rat {
		lcm = lcmInt(lcm, r.Denom())
	}
	ints := make([]*big.Int, n)
	gcd := new(big.Int)
	for i, r := range rat {
		v := new(big.Int).Mul(r.Num(), new(big.Int).Div(lcm, r.Denom()))
		ints[i] = v
		if i == 0 {
			gcd.Set(v)
		} else {
			gcd.GCD(nil, nil, gcd, v)
		}
	}
	out := make([]int64, n)
	for i, v := range ints {
		q := new(big.Int).Div(v, gcd)
		if !q.IsInt64() || q.Int64() <= 0 {
			return nil, fmt.Errorf("csdf: repetition count of actor %q out of range", g.Actors[i].Name)
		}
		out[i] = q.Int64()
	}
	// Verify every channel balances over one iteration; propagation
	// guarantees this for trees, verification covers cycles.
	for _, c := range g.Channels {
		if out[c.Src]*c.Prod.Sum() != out[c.Dst]*c.Cons.Sum() {
			return nil, fmt.Errorf("csdf: channel %d (%s→%s) does not balance",
				c.ID, g.Actors[c.Src].Name, g.Actors[c.Dst].Name)
		}
	}
	return &RepetitionVector{Cycles: out}, nil
}

func lcmInt(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, g)
	return out.Mul(out, b)
}

// cloneForBuffers copies the graph's channels into one slab so capacity
// edits do not leak into the caller's graph. Actors are shared (immutable
// during analysis).
func cloneForBuffers(g *Graph) *Graph {
	q := &Graph{Name: g.Name, Actors: g.Actors, in: g.in, out: g.out}
	q.Channels = make([]*Channel, len(g.Channels))
	slab := make([]Channel, len(g.Channels))
	for i, c := range g.Channels {
		slab[i] = *c
		q.Channels[i] = &slab[i]
	}
	return q
}

// bufferSizesRef is BufferSizes as it was, over executeRef.
func bufferSizesRef(g *Graph, opts BufferOptions) (*BufferResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 256
	}
	work := cloneForBuffers(g)
	free := make([]ChannelID, 0, len(g.Channels)) // channels we may size
	for _, c := range g.Channels {
		if c.Capacity == 0 {
			free = append(free, c.ID)
			work.Channels[c.ID].Capacity = lowerBound(c)
		}
	}

	meets := func(r *ExecResult) bool {
		if r.Deadlocked {
			return false
		}
		if opts.TargetPeriod <= 0 {
			return true
		}
		return r.Period <= opts.TargetPeriod
	}

	var last *ExecResult
	bestPeriod := -1.0
	sinceImprove := 0
	for round := 0; ; round++ {
		r, err := executeRef(work, opts.Exec)
		if err != nil {
			return nil, err
		}
		last = r
		if meets(r) {
			break
		}
		if round >= opts.MaxRounds {
			break
		}
		// Growing buffers monotonically improves the period; if several
		// consecutive growths changed nothing, the graph is
		// computation-bound and further growth is pointless.
		if !r.Deadlocked {
			if bestPeriod < 0 || r.Period < bestPeriod {
				bestPeriod = r.Period
				sinceImprove = 0
			} else {
				sinceImprove++
				if sinceImprove >= 8 {
					break
				}
			}
		}
		grow := pickGrowth(r, free)
		if grow < 0 {
			// No sizable channel is exerting back-pressure: the graph is
			// computation-bound (or deadlocked structurally); growing
			// buffers cannot help.
			break
		}
		work.Channels[grow].Capacity += growthStep(g.Channels[grow], work.Channels[grow].Capacity)
	}

	if last.Deadlocked && noFullBlocks(last, free) {
		return nil, fmt.Errorf("csdf: graph %q deadlocks regardless of buffer sizes: %s", g.Name, last.DeadlockReport)
	}

	out := &BufferResult{Capacities: make(map[ChannelID]int64, len(free)), Exec: last, Met: meets(last)}
	for _, cid := range free {
		out.Capacities[cid] = work.Channels[cid].Capacity
	}
	return out, nil
}
