package csdf

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// ExecOptions configures self-timed execution.
type ExecOptions struct {
	// WarmupIterations are executed before measurement starts, letting the
	// self-timed schedule settle into its periodic regime.
	WarmupIterations int
	// MeasureIterations is the number of graph iterations the period is
	// averaged over.
	MeasureIterations int
	// Observe selects the actor whose completed iterations delimit the
	// measurement. Negative selects the default: the first actor with no
	// outgoing channels, or actor 0 if every actor has successors.
	Observe ActorID
	// Source overrides the actor whose firing starts define the beginning
	// of an iteration for latency accounting. Negative selects the first
	// actor with no incoming channels.
	Source ActorID
	// MaxEvents bounds the number of completion instants — points in
	// simulated time at which firings complete, however many — before
	// execution aborts as runaway (0 means a generous default).
	MaxEvents int
	// ExclusiveGroups lists sets of actors that cannot fire concurrently,
	// e.g. the actors mapped onto one processing tile. Within a group,
	// firings serialise; among ready members, the least-fired goes first
	// (round-robin fairness).
	ExclusiveGroups [][]ActorID
	// StaticOrders prescribes, per processor, a cyclic firing sequence:
	// entry k of the sequence is the only actor of that group allowed to
	// start the group's k-th firing (modulo the sequence length). This is
	// the static-order (temporal) schedule of Smit et al. (SoC 2005),
	// which the paper's spatial mapping is explicitly separated from.
	// Actors in a sequence are implicitly mutually exclusive. An actor
	// may appear in at most one sequence and must not additionally appear
	// in ExclusiveGroups.
	StaticOrders [][]ActorID
}

// DefaultExecOptions returns the options used when zero-valued fields are
// passed to Execute.
func DefaultExecOptions() ExecOptions {
	return ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: -1, Source: -1}
}

// ExecResult reports the outcome of self-timed execution. It owns all its
// memory: callers may keep and modify it freely.
type ExecResult struct {
	// Period is the steady-state time per graph iteration, averaged over
	// the measured iterations, in the graph's time unit.
	Period float64
	// Latency is the largest observed span from the source actor starting
	// an iteration's first firing to the observed actor completing that
	// iteration's last firing.
	Latency int64
	// Deadlocked reports that execution stopped with work remaining but no
	// actor able to fire.
	Deadlocked bool
	// DeadlockReport describes the blocked state when Deadlocked is true.
	DeadlockReport string
	// EmptyBlocks[c] counts the scheduling passes in which an actor was
	// vetoed by a lack of tokens on channel c; FullBlocks[c] counts vetoes
	// by a lack of space. Both are indexed by ChannelID. Buffer sizing
	// grows the channel with the most FullBlocks, so these counts are
	// part of the engine's contract, not a diagnostic.
	EmptyBlocks []int64
	FullBlocks  []int64
	// Iterations is the number of complete iterations the observed actor
	// finished.
	Iterations int
	// Time is the simulated time at which execution stopped.
	Time int64
	// BusyTime[a] is the total time actor a spent firing; together with
	// Time it yields per-actor utilisation.
	BusyTime []int64
}

// Utilisation returns actor a's busy fraction over the whole run, in
// [0, 1]. It identifies throughput bottlenecks for refinement feedback.
func (r *ExecResult) Utilisation(a ActorID) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.BusyTime[a]) / float64(r.Time)
}

// Execute runs the graph self-timed: every actor fires as soon as its
// current phase's input tokens are available, the space its production
// needs is free on all bounded output channels, and the actor itself is
// idle (no auto-concurrency). Tokens are consumed when a phase starts and
// produced when it completes, the conservative CSDF firing rule.
//
// Execution stops when the observed actor completes the requested warmup
// plus measurement iterations, on deadlock, or at the event bound.
func (g *Graph) Execute(opts ExecOptions) (*ExecResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := enginePool.Get().(*engine)
	defer e.release()
	if err := e.load(g); err != nil {
		return nil, err
	}
	return e.run(opts)
}

// A verdict is the cached outcome of one evaluation of an actor's firing
// rule. Values from vetoBase up name the channel end that vetoed the
// firing and double as an index into engine.blocks.
type verdict int32

const (
	silent   verdict = iota // busy, finished, or held by its group or static order
	ready                   // may start now
	vetoBase                // vetoBase+2c: channel c lacks tokens; vetoBase+2c+1: lacks space
)

func vetoEmpty(ch int32) verdict { return vetoBase + verdict(2*ch) }
func vetoFull(ch int32) verdict  { return vetoBase + verdict(2*ch) + 1 }

// edge is one channel end as its actor sees it.
type edge struct {
	ch   int32
	peer int32   // the actor at the other end
	rate Pattern // tokens per phase of this actor
}

// actorState is everything the engine keeps per actor.
type actorState struct {
	// Topology, set by load.
	ins, outs []edge // windows of engine.edges, in the order Connect added them
	wcet      Pattern
	perIter   int64 // firings per graph iteration

	// Options, set by run.
	firingCap int64 // firings after which the actor has run far enough ahead
	group     int32 // its exclusive group, or -1
	order     int32 // its static order, or -1

	fired      int64 // started firings
	startPhase int32 // phase of the next firing to start
	donePhase  int32 // phase of the next firing to complete
	busyUntil  int64
	busyTime   int64

	// The cached outcome of the firing rule. It stands for every pass
	// from evalPass up to the pass that re-evaluates the actor; settle
	// charges the veto counts for those passes in one step. Group members
	// are evaluated afresh whenever their group is idle and stay silent
	// here.
	verdict  verdict
	evalPass int64
}

type channelState struct {
	capacity int64
	tokens   int64
	occupied int64 // tokens plus the space firings in flight have reserved
}

// execEvent is the completion of one firing. Completions due at the same
// instant are all applied before anything is scheduled again and their
// effects commute, so they need no order among themselves.
type execEvent struct {
	time  int64
	actor int32
}

// engine holds everything one self-timed run touches, densely indexed by
// actor or channel. Engines are pooled: load sizes one for a graph, run
// may be called any number of times on the loaded graph (BufferSizes
// changes capacities in between), and release returns it. Nothing an
// engine owns may escape into an ExecResult.
type engine struct {
	g        *Graph
	actors   []actorState
	channels []channelState
	edges    []edge // every channel end, grouped by actor

	// Repetition-solver memory.
	cycles, balance []int64
	queue           []ActorID

	groups      [][]ActorID
	groupActive []int32
	orders      [][]ActorID
	orderPos    []int64
	orderBusy   []int32

	dirty  []uint64 // bitset of the actors to re-evaluate
	pass   int64
	blocks []int64 // veto counts, indexed by verdict-vetoBase

	now  int64
	heap []execEvent

	source, observe     int32
	sourceIn, observeIn int64 // firings into the current iteration
	iterDone            []int64
	iterSrcStart        []int64

	// The last two snapshots at observed-actor boundaries and at source
	// iteration starts, each pair of equal length; see recurred.
	sinkSnaps, sourceSnaps []int64
	// A copy of the actor and channel state and of the heap at the last
	// observed-actor boundary, which restore returns to.
	savedActors   []actorState
	savedChannels []channelState
	savedHeap     []execEvent
	// Runs made, those that skipped cycles, those that skipped from a
	// restored boundary and the completion instants simulated rather than
	// skipped: the tests floor the shares and cap the instants.
	runs, forwarded, restored, simulated int64

	// BufferSizes' working copy of its graph: the caller's actors and a
	// copy of its channels, whose capacities the search edits; and the
	// channels it may size.
	work      Graph
	workSlab  []Channel
	workChans []*Channel
	free      []ChannelID
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

func (e *engine) release() {
	// Drop what points into caller memory so a pooled engine pins no graph.
	e.g, e.groups, e.orders = nil, nil, nil
	e.work = Graph{}
	clear(e.actors)
	clear(e.savedActors)
	clear(e.edges)
	clear(e.workSlab)
	enginePool.Put(e)
}

// workOn returns a copy of g for BufferSizes to edit capacities in. Actors
// are shared: analysis does not change them.
func (e *engine) workOn(g *Graph) *Graph {
	e.workSlab = resize(e.workSlab, len(g.Channels))
	e.workChans = resize(e.workChans, len(g.Channels))
	for i, c := range g.Channels {
		e.workSlab[i] = *c
		e.workChans[i] = &e.workSlab[i]
	}
	e.work = Graph{Name: g.Name, Actors: g.Actors, Channels: e.workChans, in: g.in, out: g.out}
	return &e.work
}

// resize returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// load binds the engine to g: it solves the balance equations and lays the
// channel ends out per actor.
func (e *engine) load(g *Graph) error {
	n := len(g.Actors)
	e.g = g
	e.cycles = resize(e.cycles, n)
	e.balance = resize(e.balance, 2*n)
	e.queue = resize(e.queue, n)
	if err := solveBalance(g, e.cycles, e.balance, e.queue); err != nil {
		return err
	}
	e.actors = resize(e.actors, n)
	e.edges = resize(e.edges, 2*len(g.Channels))
	next := e.edges
	for a := range e.actors {
		st := &e.actors[a]
		st.wcet = g.Actors[a].WCET
		st.perIter = e.cycles[a] * int64(len(st.wcet))
		for i, cid := range g.in[a] {
			c := g.Channels[cid]
			next[i] = edge{ch: int32(cid), peer: int32(c.Src), rate: c.Cons}
		}
		st.ins, next = next[:len(g.in[a])], next[len(g.in[a]):]
		for i, cid := range g.out[a] {
			c := g.Channels[cid]
			next[i] = edge{ch: int32(cid), peer: int32(c.Dst), rate: c.Prod}
		}
		st.outs, next = next[:len(g.out[a])], next[len(g.out[a]):]
	}
	return nil
}

// run executes the loaded graph once with its current capacities and
// initial tokens.
//
// Time advances from one completion instant to the next. At each instant
// the engine makes scheduling passes until one starts nothing: a pass
// visits the actors outside exclusive groups in index order, starting
// each as often as its firing rule allows, then gives every idle group
// one start, to its least-fired ready member. An actor whose rule fails
// on a channel is vetoed once per pass, so the veto counts depend on how
// many passes there are; the engine keeps that count exact while
// visiting only actors whose blocking condition may have lifted.
func (e *engine) run(opts ExecOptions) (*ExecResult, error) {
	g := e.g
	if opts.WarmupIterations == 0 && opts.MeasureIterations == 0 &&
		opts.Observe == 0 && opts.Source == 0 && opts.MaxEvents == 0 {
		d := DefaultExecOptions()
		d.ExclusiveGroups, d.StaticOrders = opts.ExclusiveGroups, opts.StaticOrders
		opts = d
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
	n, nch := len(g.Actors), len(g.Channels)
	e.observe = int32(opts.Observe)
	if e.observe < 0 {
		e.observe = 0
		for a := range e.actors {
			if len(e.actors[a].outs) == 0 {
				e.observe = int32(a)
				break
			}
		}
	}
	e.source = int32(opts.Source)
	if e.source < 0 {
		e.source = 0
		for a := range e.actors {
			if len(e.actors[a].ins) == 0 {
				e.source = int32(a)
				break
			}
		}
	}

	totalIters := int64(opts.WarmupIterations + opts.MeasureIterations)
	for a := range e.actors {
		st := &e.actors[a]
		*st = actorState{ins: st.ins, outs: st.outs, wcet: st.wcet, perIter: st.perIter,
			firingCap: (totalIters + 1) * st.perIter, group: -1, order: -1}
	}
	e.groups, e.orders = opts.ExclusiveGroups, opts.StaticOrders
	for gi, group := range e.groups {
		for _, a := range group {
			e.actors[a].group = int32(gi)
		}
	}
	for oi, order := range e.orders {
		for _, a := range order {
			e.actors[a].order = int32(oi)
		}
	}
	e.groupActive = resize(e.groupActive, len(e.groups))
	e.orderPos = resize(e.orderPos, len(e.orders))
	e.orderBusy = resize(e.orderBusy, len(e.orders))

	e.channels = resize(e.channels, nch)
	for i, c := range g.Channels {
		e.channels[i] = channelState{capacity: c.Capacity, tokens: c.Initial, occupied: c.Initial}
	}
	e.blocks = resize(e.blocks, 2*nch)
	e.dirty = resize(e.dirty, (n+63)/64)
	for a := 0; a < n; a++ {
		e.mark(int32(a))
	}
	e.pass, e.now = 0, 0
	e.heap = e.heap[:0]
	e.sourceIn, e.observeIn = 0, 0
	e.iterDone = e.iterDone[:0]
	e.iterSrcStart = e.iterSrcStart[:0]

	// Group arbitration and static orders compare absolute firing counts,
	// which no periodic phase repeats.
	lookForPeriod := len(e.groups) == 0 && len(e.orders) == 0
	e.sinkSnaps, e.sourceSnaps = e.sinkSnaps[:0], e.sourceSnaps[:0]
	e.runs++
	maxEvents, done, begun := int64(opts.MaxEvents), 0, 0
	deadlocked := false
	for events := int64(0); ; {
		for e.schedulingPass() {
		}
		if lookForPeriod && len(e.iterDone) > done {
			done = len(e.iterDone)
			if e.recurred(&e.sinkSnaps, events) {
				events = e.skipCycles(e.sinkSnaps, events, totalIters, maxEvents)
				lookForPeriod = false
			} else {
				e.savedActors = append(e.savedActors[:0], e.actors...)
				e.savedChannels = append(e.savedChannels[:0], e.channels...)
				e.savedHeap = append(e.savedHeap[:0], e.heap...)
			}
		}
		if lookForPeriod && len(e.iterSrcStart) > begun {
			begun = len(e.iterSrcStart)
			if e.recurred(&e.sourceSnaps, events) {
				if at, ok := e.restore(); ok {
					events = e.skipCycles(e.sourceSnaps, at, totalIters, maxEvents)
					lookForPeriod = false
				}
			}
		}
		if int64(len(e.iterDone)) >= totalIters {
			break
		}
		if len(e.heap) == 0 {
			deadlocked = true
			break
		}
		// Complete everything due at the next instant before scheduling
		// again.
		e.now = e.heap[0].time
		for len(e.heap) > 0 && e.heap[0].time == e.now {
			e.finish(e.pop())
		}
		events++
		e.simulated++
		if events > maxEvents {
			return nil, fmt.Errorf("csdf: execution of %q exceeded %d events; graph may not settle", g.Name, opts.MaxEvents)
		}
	}
	// Charge the verdicts still standing for the passes since they were
	// reached.
	e.pass++
	for a := range e.actors {
		e.settle(&e.actors[a])
	}

	// One backing array for the three per-entity slices, each capped so
	// that appending to one cannot write into the next.
	buf := make([]int64, 2*nch+n)
	res := &ExecResult{
		Deadlocked:  deadlocked,
		EmptyBlocks: buf[:nch:nch],
		FullBlocks:  buf[nch : 2*nch : 2*nch],
		BusyTime:    buf[2*nch:],
		Iterations:  len(e.iterDone),
		Time:        e.now,
	}
	for c := 0; c < nch; c++ {
		res.EmptyBlocks[c], res.FullBlocks[c] = e.blocks[2*c], e.blocks[2*c+1]
	}
	for a := range e.actors {
		res.BusyTime[a] = e.actors[a].busyTime
	}
	if deadlocked {
		res.DeadlockReport = e.deadlockReport()
	}
	if len(e.iterDone) > opts.WarmupIterations {
		m := len(e.iterDone) - 1
		w := opts.WarmupIterations
		if w >= m {
			w = 0
		}
		res.Period = float64(e.iterDone[m]-e.iterDone[w]) / float64(m-w)
	}
	for i := 0; i < len(e.iterDone) && i < len(e.iterSrcStart); i++ {
		if lat := e.iterDone[i] - e.iterSrcStart[i]; lat > res.Latency {
			res.Latency = lat
		}
	}
	return res, nil
}

// Self-timed execution of a consistent, bounded graph is a transient
// followed by a strictly periodic phase. At two kinds of settled instant —
// the observed actor has closed an iteration, or the source has begun one,
// and the instant's scheduling passes are done — the engine snapshots its
// state relative to now; when two successive snapshots of one kind agree,
// everything the firing rule will read repeats, every counter grows by the
// same amount per cycle, and the cycles can be added instead of simulated.
//
// A snapshot first charges every standing veto for the passes up to now
// (settle charges only the passes after), so no verdict carries an age.
// It is the counters a skip multiplies (snapCounters for the run, fired
// and busyTime per actor, blocks), then the relative state: per actor the
// phase of its next start, per channel its tokens, how far the source and
// the observed actor are into their iterations, and the pending
// completions as (time−now, actor) in heap order; sorting them first let
// no measured run skip more. The rest follows from these at a settled
// instant: an actor's pending completions fix its busyUntil and, with
// startPhase, its donePhase and the space its firings hold reserved
// (occupied − tokens); its verdict is what evaluating it now would return;
// its evalPass is pass+1; no actor is dirty. Two absolutes remain, the
// firing caps and the event bound: skipCycles stays within the event
// bound and lets an actor reach its cap only where reaching it changes
// nothing it does.
const snapCounters = 5 // now, pass, events, len(iterDone), len(iterSrcStart)

// recurred records the state in the pair of snapshots it is given and
// reports whether it equals, relative to now, the state the pair recorded
// before.
func (e *engine) recurred(pair *[]int64, events int64) bool {
	n, nch := len(e.actors), len(e.channels)
	relative := snapCounters + 2*n + 2*nch
	size := relative + n + nch + 2 + 2*len(e.heap)
	// The older snapshot makes way; one of another length cannot match.
	fresh := len(*pair) != 2*size
	if fresh {
		*pair = resize(*pair, 2*size)
	} else {
		copy(*pair, (*pair)[size:])
	}
	s := (*pair)[size:]
	s[0], s[1], s[2], s[3], s[4] = e.now, e.pass, events, int64(len(e.iterDone)), int64(len(e.iterSrcStart))
	counters, rel := s[snapCounters:], s[relative:]
	for a := range e.actors {
		st := &e.actors[a]
		if st.verdict >= vetoBase {
			e.blocks[st.verdict-vetoBase] += e.pass + 1 - st.evalPass
		}
		st.evalPass = e.pass + 1
		counters[2*a], counters[2*a+1] = st.fired, st.busyTime
		rel[a] = int64(st.startPhase)
	}
	copy(counters[2*n:], e.blocks)
	rel = rel[n:]
	for c := range e.channels {
		rel[c] = e.channels[c].tokens
	}
	rel[nch], rel[nch+1] = e.sourceIn, e.observeIn
	for i, ev := range e.heap {
		rel[nch+2+2*i], rel[nch+3+2*i] = ev.time-e.now, int64(ev.actor)
	}
	return !fresh && slices.Equal((*pair)[relative:size], s[relative:])
}

// restore is called when the two source snapshots agree, so the run is
// periodic from the older one on. If an iteration ended in the cycle
// between them, the last observed-actor boundary lies inside it, and its
// state recurs a cycle later too. restore returns the engine to that
// boundary and reports the event count there, so that the skipped cycles
// end on a boundary and leave no tail to simulate. A skip repeats, a cycle
// on, the last iteration ends and starts recorded before the boundary: the
// cycle's dDone ends all precede it, but its dBegun starts were all
// recorded at the newer snapshot, so the dBegun starts before the boundary
// must be the older snapshot's. Otherwise restore reports false and
// changes nothing.
func (e *engine) restore() (events int64, ok bool) {
	size := len(e.sourceSnaps) / 2
	older, cur := e.sourceSnaps[:size], e.sourceSnaps[size:]
	if cur[3] == older[3] {
		return 0, false
	}
	b := e.sinkSnaps[len(e.sinkSnaps)/2:]
	dBegun, begun := int(cur[4]-older[4]), int(b[4])
	if begun < dBegun || e.iterSrcStart[begun-dBegun] < older[0] {
		return 0, false
	}
	n, nch := len(e.actors), len(e.channels)
	copy(e.actors, e.savedActors)
	copy(e.channels, e.savedChannels)
	e.heap = append(e.heap[:0], e.savedHeap...)
	e.now, e.pass = b[0], b[1]
	e.iterDone, e.iterSrcStart = e.iterDone[:b[3]], e.iterSrcStart[:begun]
	copy(e.blocks, b[snapCounters+2*n:])
	rel := b[snapCounters+2*n+2*nch:]
	e.sourceIn, e.observeIn = rel[n+nch], rel[n+nch+1]
	e.restored++
	return b[2], true
}

// skipCycles advances the engine by as many repetitions of the cycle
// between the pair's two snapshots as keep the event count, which it
// returns, within its bound and no actor's firing cap in the way. The cap
// silences an actor from the start of its last firing on. An actor still
// executing at the boundary (busyUntil > now) is silent from that start to
// the boundary for being busy, so a skipped cycle that ends exactly on its
// cap equals the simulated one: before the start the cap did not bind,
// after it the rule answers silent either way. An actor idle at the
// boundary — vetoed, or zero-WCET with busyUntil == now — would have been
// evaluated, and charged its vetoes, where the cap says silent; it stays
// one firing short, and the iterations in which it leads the observed
// actor to the cap are simulated.
func (e *engine) skipCycles(pair []int64, events, totalIters, maxEvents int64) int64 {
	size := len(pair) / 2
	prev, cur := pair[:size], pair[size:]
	delta := func(i int) int64 { return cur[i] - prev[i] }
	dNow, dPass, dEvents, dDone, dBegun := delta(0), delta(1), delta(2), int(delta(3)), int(delta(4))

	// Every snapshot has a completion instant of its own, and restore
	// declines a cycle in which no iteration ends: no zero divisor.
	k := min((totalIters-int64(len(e.iterDone)))/int64(dDone), (maxEvents-events)/dEvents)
	for a := range e.actors {
		if d := delta(snapCounters + 2*a); d > 0 {
			st := &e.actors[a]
			room := st.firingCap - st.fired
			if st.busyUntil <= e.now {
				room--
			}
			k = min(k, room/d)
		}
	}
	if k <= 0 {
		return events
	}
	e.forwarded++

	e.now += k * dNow
	e.pass += k * dPass
	for a := range e.actors {
		st := &e.actors[a]
		st.fired += k * delta(snapCounters+2*a)
		st.busyTime += k * delta(snapCounters+2*a+1)
		st.busyUntil += k * dNow
		st.evalPass += k * dPass
	}
	for i := range e.blocks {
		e.blocks[i] += k * delta(snapCounters+2*len(e.actors)+i)
	}
	for i := range e.heap {
		e.heap[i].time += k * dNow
	}
	nd, nb := len(e.iterDone), len(e.iterSrcStart)
	for j := int64(1); j <= k; j++ {
		for _, t := range e.iterDone[nd-dDone : nd] {
			e.iterDone = append(e.iterDone, t+j*dNow)
		}
		for _, t := range e.iterSrcStart[nb-dBegun : nb] {
			e.iterSrcStart = append(e.iterSrcStart, t+j*dNow)
		}
	}
	return events + k*dEvents
}

// mark schedules actor a for re-evaluation at its next turn: later in the
// current pass if its index is still ahead, in the next pass otherwise.
// Group members have no turn of their own.
func (e *engine) mark(a int32) {
	if e.actors[a].group < 0 {
		e.dirty[a>>6] |= 1 << (a & 63)
	}
}

// settle charges the actor's standing veto for the passes it has stood,
// from evalPass up to but excluding the current one.
func (e *engine) settle(st *actorState) {
	if st.verdict >= vetoBase {
		e.blocks[st.verdict-vetoBase] += e.pass - st.evalPass
	}
	st.verdict, st.evalPass = silent, e.pass
}

// schedulingPass makes one pass and reports whether it started a firing.
func (e *engine) schedulingPass() bool {
	e.pass++
	progressed := false
	for w := range e.dirty {
		// Bits at or below the actor just visited wait for the next pass;
		// a bit set ahead of it by one of its starts is picked up by
		// re-reading the word.
		for ahead := ^uint64(0); e.dirty[w]&ahead != 0; {
			bit := bits.TrailingZeros64(e.dirty[w] & ahead)
			ahead = ^uint64(0) << bit << 1
			a := int32(w<<6 + bit)
			st := &e.actors[a]
			e.settle(st)
			v := e.evaluate(a, st)
			for v == ready {
				e.start(a, st)
				progressed = true
				v = e.evaluate(a, st)
			}
			st.verdict = v
			// A static order changes under its members without marking
			// them, so they stay dirty; everyone else's verdict now holds
			// until a neighbour lifts what it is blocked on.
			if st.order < 0 {
				e.dirty[w] &^= 1 << bit
			}
		}
	}
	for gi, group := range e.groups {
		if e.groupActive[gi] > 0 {
			continue
		}
		// Among the ready members the least-fired goes first: a fixed
		// scan order would let one member monopolise the group.
		best := int32(-1)
		for _, m := range group {
			a := int32(m)
			v := e.evaluate(a, &e.actors[a])
			if v >= vetoBase {
				e.blocks[v-vetoBase]++
			}
			if v == ready && (best < 0 || e.actors[a].fired < e.actors[best].fired) {
				best = a
			}
		}
		if best >= 0 {
			e.start(best, &e.actors[best])
			progressed = true
		}
	}
	return progressed
}

// evaluate applies the firing rule to the actor's next phase. The order
// of the checks decides which channel a blocked actor's veto is charged
// to.
func (e *engine) evaluate(a int32, st *actorState) verdict {
	if st.fired >= st.firingCap || st.busyUntil > e.now {
		return silent
	}
	if st.group >= 0 && e.groupActive[st.group] > 0 {
		return silent
	}
	if oi := st.order; oi >= 0 {
		order := e.orders[oi]
		if e.orderBusy[oi] > 0 || order[e.orderPos[oi]%int64(len(order))] != ActorID(a) {
			return silent
		}
	}
	phase := st.startPhase
	for _, in := range st.ins {
		if e.channels[in.ch].tokens < in.rate[phase] {
			return vetoEmpty(in.ch)
		}
	}
	for _, out := range st.outs {
		if ch := &e.channels[out.ch]; ch.capacity > 0 && ch.occupied+out.rate[phase] > ch.capacity {
			return vetoFull(out.ch)
		}
	}
	return ready
}

// start begins the actor's next firing: it consumes the phase's inputs,
// reserves space for its outputs and schedules the completion. Consuming
// frees space, which matters only to a producer blocked on exactly that.
func (e *engine) start(a int32, st *actorState) {
	phase := st.startPhase
	if a == e.source {
		if e.sourceIn == 0 {
			e.iterSrcStart = append(e.iterSrcStart, e.now)
		}
		if e.sourceIn++; e.sourceIn == st.perIter {
			e.sourceIn = 0
		}
	}
	for _, in := range st.ins {
		if r := in.rate[phase]; r != 0 {
			ch := &e.channels[in.ch]
			ch.tokens -= r
			ch.occupied -= r
			if e.actors[in.peer].verdict == vetoFull(in.ch) {
				e.mark(in.peer)
			}
		}
	}
	for _, out := range st.outs {
		e.channels[out.ch].occupied += out.rate[phase]
	}
	w := st.wcet[phase]
	if phase++; int(phase) == len(st.wcet) {
		phase = 0
	}
	st.startPhase = phase
	st.fired++
	st.busyUntil = e.now + w
	st.busyTime += w
	if st.group >= 0 {
		e.groupActive[st.group]++
	}
	if st.order >= 0 {
		e.orderBusy[st.order]++
		e.orderPos[st.order]++
	}
	e.push(execEvent{time: e.now + w, actor: a})
}

// finish completes actor a's oldest firing in flight: its outputs become
// tokens, which matter only to a consumer blocked on exactly those, and
// the actor itself may be idle again.
func (e *engine) finish(a int32) {
	st := &e.actors[a]
	phase := st.donePhase
	for _, out := range st.outs {
		if r := out.rate[phase]; r != 0 {
			e.channels[out.ch].tokens += r
			if e.actors[out.peer].verdict == vetoEmpty(out.ch) {
				e.mark(out.peer)
			}
		}
	}
	if phase++; int(phase) == len(st.wcet) {
		phase = 0
	}
	st.donePhase = phase
	if st.verdict == silent {
		e.mark(a)
	}
	if st.group >= 0 {
		e.groupActive[st.group]--
	}
	if st.order >= 0 {
		e.orderBusy[st.order]--
	}
	if a == e.observe {
		if e.observeIn++; e.observeIn == st.perIter {
			e.observeIn = 0
			e.iterDone = append(e.iterDone, e.now)
		}
	}
}

// push and pop keep e.heap a binary min-heap on completion time.
func (e *engine) push(ev execEvent) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ev.time >= h[parent].time {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.heap = h
}

func (e *engine) pop() int32 {
	h := e.heap
	top := h[0].actor
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].time < h[child].time {
			child = r
		}
		if h[child].time >= last.time {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}

// deadlockReport lists, for every actor that still has firings to make,
// the channel ends its next phase is waiting on.
func (e *engine) deadlockReport() string {
	g := e.g
	var b strings.Builder
	b.WriteString("deadlock: ")
	for a := range e.actors {
		st := &e.actors[a]
		if st.fired >= st.firingCap {
			continue
		}
		name, phase := g.Actors[a].Name, st.startPhase
		var why []string
		for _, in := range st.ins {
			if need, has := in.rate[phase], e.channels[in.ch].tokens; has < need {
				why = append(why, fmt.Sprintf("needs %d tokens on %s→%s (has %d)",
					need, g.Actors[in.peer].Name, name, has))
			}
		}
		for _, out := range st.outs {
			if ch := e.channels[out.ch]; ch.capacity > 0 && ch.tokens+out.rate[phase] > ch.capacity {
				why = append(why, fmt.Sprintf("needs %d space on %s→%s (cap %d, %d full)",
					out.rate[phase], name, g.Actors[out.peer].Name, ch.capacity, ch.tokens))
			}
		}
		if len(why) > 0 {
			fmt.Fprintf(&b, "%s blocked (%s); ", name, strings.Join(why, ", "))
		}
	}
	return b.String()
}
