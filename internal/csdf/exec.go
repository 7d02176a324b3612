package csdf

import (
	"fmt"
	"math"
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
	silent   verdict = iota // busy, finished, or held by its group
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

	actorRun
}

// actorRun is the part of an actor's state that firings change, the part
// restore returns to.
type actorRun struct {
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
	pending  int32 // its completions in the heap
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

	// Repetition-solver memory, which load carves from actorMem.
	cycles, balance []int64
	queue           []ActorID
	// Five words per actor for load, then for the stream window's record
	// (see record); blocks and three words per channel for that record.
	// The actors recorded are listed in queue, after load is done with it.
	actorMem, chanMem []int64
	recorded          int

	groups      [][]ActorID
	groupActive []int32

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
	savedActors   []actorRun
	savedChannels []channelState
	savedHeap     []execEvent
	// The stream fast-forward (see stream): the hash of the current
	// instant's completions, the signatures of the last four
	// settled instants, latest first, and the time and pass count at the
	// last one. Bit p of signed is set once there are p signatures; bit p
	// of matched if the last settled instant repeated the one p back.
	instHash          uint64
	sigs              [4]uint64
	lastNow, lastPass int64
	signed, matched   uint8
	// The window being confirmed: its length in instants (0 when
	// disarmed) and the instants still to go; the windows since the last
	// skip that did not pay, the instants signed outside windows since
	// then, and the instants to go before signing again.
	window, windowLeft   int
	fails, dry, cooldown int64
	// The window's start, S0: its time, pass and event count.
	then, thenPass, thenEvents int64

	// Runs made, those that skipped cycles, those that skipped from a
	// restored boundary, the stream windows skipped and the completion
	// instants simulated rather than skipped: the tests floor the shares
	// and cap the instants.
	runs, forwarded, restored, streamed, simulated int64

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
	e.g, e.groups = nil, nil
	e.work = Graph{}
	clear(e.actors)
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

// empty returns s with length 0 and room for n elements without growing,
// reusing its backing array when that is large enough.
func empty[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// load binds the engine to g: it solves the balance equations and lays the
// channel ends out per actor.
func (e *engine) load(g *Graph) error {
	n := len(g.Actors)
	e.g = g
	e.actorMem = resize(e.actorMem, 5*n)
	e.cycles, e.balance = e.actorMem[:n:n], e.actorMem[n:3*n]
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
		d.ExclusiveGroups = opts.ExclusiveGroups
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
			firingCap: (totalIters + 1) * st.perIter, group: -1}
	}
	e.groups = opts.ExclusiveGroups
	for gi, group := range e.groups {
		for _, a := range group {
			e.actors[a].group = int32(gi)
		}
	}
	e.groupActive = resize(e.groupActive, len(e.groups))

	e.channels = resize(e.channels, nch)
	for i, c := range g.Channels {
		e.channels[i] = channelState{capacity: c.Capacity, tokens: c.Initial, occupied: c.Initial}
	}
	e.chanMem = resize(e.chanMem, 5*nch)
	e.blocks = e.chanMem[: 2*nch : 2*nch]
	e.dirty = resize(e.dirty, (n+63)/64)
	e.window = 0 // no window is open to record actors in
	for a := 0; a < n; a++ {
		e.mark(int32(a))
	}
	e.pass, e.now = 0, 0
	e.heap = e.heap[:0]
	e.sourceIn, e.observeIn = 0, 0
	e.iterDone = empty(e.iterDone, int(totalIters)+1)
	e.iterSrcStart = empty(e.iterSrcStart, int(totalIters)+1)

	// Group arbitration compares absolute firing counts, which no
	// periodic phase repeats; streams outlive the cycle skip.
	lookForPeriod := len(e.groups) == 0
	lookForStream := lookForPeriod
	e.clearStream()
	e.fails, e.dry, e.cooldown = 0, 0, 0
	e.sinkSnaps, e.sourceSnaps = e.sinkSnaps[:0], e.sourceSnaps[:0]
	e.runs++
	maxEvents, done, begun := int64(opts.MaxEvents), 0, 0
	deadlocked := false
	for events := int64(0); ; {
		for e.schedulingPass() {
		}
		if lookForStream {
			if e.cooldown == 0 {
				events = e.stream(events, maxEvents)
			} else if e.cooldown--; e.cooldown == 0 {
				e.clearStream()
			}
		}
		if lookForPeriod && len(e.iterDone) > done {
			done = len(e.iterDone)
			if e.recurred(&e.sinkSnaps, events) {
				events = e.skipCycles(e.sinkSnaps, events, totalIters, maxEvents)
				lookForPeriod = false
				e.clearStream()
			} else {
				e.savedActors = empty(e.savedActors, n)
				for a := range e.actors {
					e.savedActors = append(e.savedActors, e.actors[a].actorRun)
				}
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
					e.clearStream()
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
	for a, saved := range e.savedActors {
		e.actors[a].actorRun = saved
	}
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

// Inside an iteration a mapped graph streams each burst through a chain
// of per-token routers: the instants repeat with a short period while
// only some channels' token counts move, the burst's first channel
// draining and its last one filling. The engine signs every settled
// instant with its time step, its pass count, the completions it applied
// (actor and phase) and the completions left pending. When two instants
// in a row repeat the signature P ≤ 4 instants back, a window of the next
// P instants opens at S0. The window records the state at S0 of each
// actor it changes and of that actor's channels before it changes them
// (see record); nothing else changes. If the P signatures repeat too and
// the state at the window's end, S1, equals S0 up to the drift, the
// window repeats from S1 for as long as every test the firing rule made
// in it keeps its outcome, and confirmStream adds k windows instead of
// simulating them.
//
// At S1, after charging the standing vetoes of the recorded actors as
// recurred does, an actor is active if it started in the window. Every
// recorded actor must have the phase, verdict and number of pending
// completions it had at S0, and neither the source nor the observed actor
// may be active, so no iteration boundary is skipped over. The pending
// completion of an active actor compares relative to now; those of the
// others are passive, unchanged, and bound k, since every skipped instant
// must precede them. A channel may drift: its tokens and its occupied
// count change by the same d. In the window its consumer took C tokens
// and its producer reserved P, so its counts stayed within [S0 − C,
// S0 + P]. Its consumer tests tokens against the rates of its pattern and
// its producer tests occupied against capacity less a rate; k stops
// before either range, moved by d per window, would reach a threshold,
// and is 0 if one lies inside it already. The firing caps and MaxEvents
// bound k as in skipCycles.
const (
	finishMix  = 0xc2b2ae3d27d4eb4f
	pendingMix = 0x9e3779b97f4a7c15
	timeMix    = 0x165667b19e3779f9
	passMix    = 0x27d4eb2f165667c5
	// The instants signed outside windows since the last skip after which
	// signing pauses, and the longest pause, in instants: a graph that
	// does not stream signs a few instants in every maxCooldown.
	dryInstants = 64
	maxCooldown = 64
	// A shorter skip does not pay for its window; it backs off as a failure.
	minSkip = 4
)

// clearStream forgets the signed instants and disarms.
func (e *engine) clearStream() {
	e.signed, e.matched, e.window = 0, 0, 0
	e.instHash, e.lastNow, e.lastPass = 0, e.now, e.pass
}

// stream signs the settled instant; it arms, confirms a window or skips
// windows, and returns the event count.
func (e *engine) stream(events, maxEvents int64) int64 {
	sig := e.instHash + uint64(e.now-e.lastNow)*timeMix + uint64(e.pass-e.lastPass)*passMix + uint64(len(e.heap))*pendingMix
	e.instHash, e.lastNow, e.lastPass = 0, e.now, e.pass
	// Bit p of matched: this instant repeats the one p back.
	h, matched := &e.sigs, uint8(0)
	if sig == h[0] {
		matched |= 1 << 1
	}
	if sig == h[1] {
		matched |= 1 << 2
	}
	if sig == h[2] {
		matched |= 1 << 3
	}
	if sig == h[3] {
		matched |= 1 << 4
	}
	h[0], h[1], h[2], h[3] = sig, h[0], h[1], h[2]
	matched &= e.signed
	full := e.signed == 0x1e
	e.signed = (e.signed<<1 | 1<<1) & 0x1e
	twice := matched & e.matched
	e.matched = matched
	switch {
	case e.window > 0:
		if matched&(1<<e.window) == 0 {
			e.declineStream()
		} else if e.windowLeft--; e.windowLeft == 0 {
			if k, dEvents := e.confirmStream(events, maxEvents); k > 0 {
				e.clearStream()
				if k >= minSkip {
					e.fails, e.dry = 0, 0
				} else {
					e.backOff()
				}
				return events + k*dEvents
			}
			e.declineStream()
		}
	case twice != 0:
		e.armStream(bits.TrailingZeros8(twice), events)
	case full:
		if e.dry++; e.dry >= dryInstants {
			e.cooldown = min(e.dry, maxCooldown)
		}
	}
	return events
}

// declineStream disarms and backs off.
func (e *engine) declineStream() {
	e.window = 0
	e.backOff()
}

// backOff waits longer before signing again, after a window that did not
// repeat or a skip too short to pay for its window.
func (e *engine) backOff() {
	e.fails++
	e.cooldown = min(int64(1)<<min(e.fails, 16), maxCooldown)
}

// armStream begins a window at S0, the state now.
func (e *engine) armStream(window int, events int64) {
	e.recorded = 0
	e.then, e.thenPass, e.thenEvents = e.now, e.pass, events
	e.window, e.windowLeft = window, window
}

// The window's record of an actor at S0 is its fired count, busyUntil,
// busyTime, one word holding its verdict and its pending completions, and
// its place in the list of recorded actors. A channel's is its tokens and its
// two veto counts, recorded with the first of its ends. A channel's
// occupied count less its tokens is the space its producer's firings in
// flight hold, which the producer's phase and pending completions fix.
const actorWords = 5

func (e *engine) actorRecord(a int32) []int64 {
	return e.actorMem[actorWords*a : actorWords*a+actorWords]
}

func (e *engine) chanRecord(c int32) []int64 {
	at := 2*int32(len(e.channels)) + 3*c
	return e.chanMem[at : at+3]
}

// recordedAt reports whether the window has recorded actor a. Records
// left from load or from earlier windows do not name a place in the list
// that names them back.
func (e *engine) recordedAt(a int32) bool {
	at := e.actorMem[actorWords*a+4]
	return at >= 0 && at < int64(e.recorded) && e.queue[at] == ActorID(a)
}

// record records the state at S0 of actor a and of those of its channels
// whose other end the window has not recorded, unless it has recorded a.
// The window records an actor before it first re-evaluates it or
// completes one of its firings: nothing else changes an actor, and only
// an actor's starts and completions change its channels. It charges the
// actor's standing veto for the passes up to S0, as recurred charges every
// actor's.
func (e *engine) record(a int32) {
	if e.recordedAt(a) {
		return
	}
	st := &e.actors[a]
	for _, ends := range [2][]edge{st.ins, st.outs} {
		for _, x := range ends {
			if x.peer == a || !e.recordedAt(x.peer) {
				c := e.chanRecord(x.ch)
				c[0], c[1], c[2] = e.channels[x.ch].tokens, e.blocks[2*x.ch], e.blocks[2*x.ch+1]
			}
		}
	}
	if v := st.verdict - vetoBase; v >= 0 {
		charge := e.thenPass + 1 - st.evalPass
		e.blocks[v] += charge
		e.chanRecord(int32(v / 2))[1+v%2] += charge
	}
	st.evalPass = e.thenPass + 1
	w := e.actorRecord(a)
	w[0], w[1], w[2], w[3], w[4] = st.fired, st.busyUntil, st.busyTime, int64(st.verdict)<<32|int64(st.pending), int64(e.recorded)
	e.queue[e.recorded] = ActorID(a)
	e.recorded++
}

// dFired returns the starts of actor a since S0.
func (e *engine) dFired(a int32) int64 {
	if e.recordedAt(a) {
		return e.actors[a].fired - e.actorMem[actorWords*a]
	}
	return 0
}

// confirmStream compares S1, the state now, with S0. If the window between
// them repeats, it adds as many more windows as its bounds allow and
// returns their number and the events in one; otherwise it returns k = 0
// and changes nothing but the veto charges.
//
// At a settled instant an actor's pending completions are all due now
// except the last, due at busyUntil: firings complete in the order they
// start, and one due later keeps the actor busy. So per actor the count
// of pending completions and busyUntil stand for the heap. The channels
// the window recorded are those of the recorded actors; each is visited
// from its consumer, or from its producer if the consumer is unrecorded.
func (e *engine) confirmStream(events, maxEvents int64) (k, dEvents int64) {
	dNow, dPass := e.now-e.then, e.pass-e.thenPass
	dEvents = events - e.thenEvents
	recorded := e.queue[:e.recorded]

	k = (maxEvents - events) / dEvents
	for _, id := range recorded {
		a := int32(id)
		w, st := e.actorRecord(a), &e.actors[a]
		if v := st.verdict - vetoBase; v >= 0 {
			e.blocks[v] += e.pass + 1 - st.evalPass
		}
		st.evalPass = e.pass + 1
		d := st.fired - w[0]
		if int64(st.verdict)<<32|int64(st.pending) != w[3] || d%int64(len(st.wcet)) != 0 {
			return 0, 0
		}
		switch {
		case d == 0:
		case a == e.source || a == e.observe:
			return 0, 0
		case st.pending > 0 && st.busyUntil-e.now != w[1]-e.then:
			return 0, 0
		default:
			room := st.firingCap - st.fired
			if st.busyUntil <= e.now {
				room--
			}
			k = min(k, room/d)
		}
	}
	passive := false // a completion of an actor that did not start is pending
	for _, ev := range e.heap {
		if e.dFired(ev.actor) == 0 {
			passive = true
			if dNow > 0 {
				k = min(k, (ev.time-e.now-1)/dNow)
			}
		}
	}
	for _, id := range recorded {
		for _, x := range e.actors[id].ins {
			k = min(k, e.drift(x.ch))
		}
		for _, x := range e.actors[id].outs {
			if !e.recordedAt(x.peer) {
				k = min(k, e.drift(x.ch))
			}
		}
	}
	if k <= 0 {
		return 0, 0
	}

	e.streamed += k
	e.now += k * dNow
	e.pass += k * dPass
	for i := range e.heap {
		if ev := &e.heap[i]; e.dFired(ev.actor) > 0 {
			ev.time += k * dNow
		}
	}
	if passive {
		// Only some completions moved: push them all back in place.
		h := e.heap
		e.heap = h[:0]
		for _, ev := range h {
			e.push(ev)
		}
	}
	for _, id := range recorded {
		w, st := e.actorRecord(int32(id)), &e.actors[id]
		if d := st.fired - w[0]; d > 0 {
			st.fired += k * d
			st.busyTime += k * (st.busyTime - w[2])
			st.busyUntil += k * dNow
		}
		st.evalPass += k * dPass
		for _, x := range st.ins {
			e.shift(x.ch, k)
		}
		for _, x := range st.outs {
			if !e.recordedAt(x.peer) {
				e.shift(x.ch, k)
			}
		}
	}
	return k, dEvents
}

// drift bounds the windows channel c can repeat for: when its counts move
// by d per window, until the range its tokens took in the window would
// reach one of its consumer's rates, or the range of its occupied count
// the capacity less one of its producer's rates. In the window its
// consumer took C tokens and its producer reserved P, and its phases
// repeat, so both ends fired whole cycles of their patterns.
func (e *engine) drift(c int32) int64 {
	ch, w := &e.channels[c], e.chanRecord(c)
	d := ch.tokens - w[0]
	if d == 0 {
		return math.MaxInt64
	}
	def, k := e.g.Channels[c], int64(math.MaxInt64)
	took := e.dFired(int32(def.Dst)) / int64(len(def.Cons)) * def.Cons.Sum()
	put := e.dFired(int32(def.Src)) / int64(len(def.Prod)) * def.Prod.Sum()
	for _, r := range def.Cons {
		k = min(k, stay(w[0]-took, w[0]+put, d, r))
	}
	if ch.capacity > 0 {
		occupied := ch.occupied - d
		for _, r := range def.Prod {
			k = min(k, stay(occupied-took, occupied+put, d, ch.capacity-r+1))
		}
	}
	return k
}

// shift adds k windows' drift and veto counts to channel c.
func (e *engine) shift(c int32, k int64) {
	ch, w := &e.channels[c], e.chanRecord(c)
	d := ch.tokens - w[0]
	ch.tokens += k * d
	ch.occupied += k * d
	e.blocks[2*c] += k * (e.blocks[2*c] - w[1])
	e.blocks[2*c+1] += k * (e.blocks[2*c+1] - w[2])
}

// stay returns how many windows a count that spans [lo, hi] in one window
// and moves by d per window can repeat before the test count >= th
// changes its outcome somewhere in one.
func stay(lo, hi, d, th int64) int64 {
	switch {
	case lo < th && th <= hi:
		return 0
	case d > 0 && th > hi:
		return (th - 1 - hi) / d
	case d < 0 && th <= lo:
		return (lo - th) / -d
	}
	return math.MaxInt64
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
			if e.window > 0 {
				e.record(a)
			}
			st := &e.actors[a]
			e.settle(st)
			v := e.evaluate(a, st)
			for v == ready {
				e.start(a, st)
				progressed = true
				v = e.evaluate(a, st)
			}
			st.verdict = v
			// The verdict now holds until a neighbour lifts what the
			// actor is blocked on.
			e.dirty[w] &^= 1 << bit
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
	st.pending++
	st.busyUntil = e.now + w
	st.busyTime += w
	if st.group >= 0 {
		e.groupActive[st.group]++
	}
	e.push(execEvent{time: e.now + w, actor: a})
}

// finish completes actor a's oldest firing in flight: its outputs become
// tokens, which matter only to a consumer blocked on exactly those, and
// the actor itself may be idle again.
func (e *engine) finish(a int32) {
	if e.window > 0 {
		e.record(a)
	}
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
	e.instHash += (uint64(a)<<32 | uint64(phase)) * finishMix
	if phase++; int(phase) == len(st.wcet) {
		phase = 0
	}
	st.donePhase = phase
	st.pending--
	if st.verdict == silent {
		e.mark(a)
	}
	if st.group >= 0 {
		e.groupActive[st.group]--
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
