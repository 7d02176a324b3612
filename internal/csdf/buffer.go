package csdf

import "fmt"

// BufferOptions configures buffer-capacity computation.
type BufferOptions struct {
	// TargetPeriod is the required steady-state time per graph iteration.
	// Zero asks only for deadlock freedom with the smallest buffers found.
	TargetPeriod float64
	// MaxRounds bounds the grow loop (0 means a generous default).
	MaxRounds int
	// Exec configures the self-timed runs used as the feasibility oracle.
	Exec ExecOptions
}

// BufferResult is the outcome of BufferSizes.
type BufferResult struct {
	// Capacities holds the computed capacity of every channel that was
	// not already bounded in the input graph.
	Capacities map[ChannelID]int64
	// Exec is the execution result with the final capacities installed.
	Exec *ExecResult
	// Met reports whether the target period was achieved. When false the
	// graph is computation-bound: growing buffers further cannot help, and
	// the mapping is infeasible at this throughput.
	Met bool
}

// BufferSizes computes channel capacities under which the graph sustains
// the target period, in the spirit of Wiggers, Bekooij and Smit (DAC 2007),
// which the paper's step 4 references for its buffer-capacity analysis.
//
// This implementation is a simulation-guided conservative search rather
// than the closed-form linear bounds of the cited work: capacities start at
// per-channel lower bounds, self-timed execution identifies the channel
// whose back-pressure blocks progress most, that channel grows, and the
// loop repeats until the target period holds. The result is therefore
// sufficient (safe) but not always the theoretical minimum;
// docs/ARCHITECTURE.md ("How the step-4 engine runs") describes the
// oracle.
//
// Channels already bounded in the input graph keep their capacity and are
// treated as hard constraints.
func BufferSizes(g *Graph, opts BufferOptions) (*BufferResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 256
	}
	// One engine serves every round: the topology and the repetition
	// vector do not change, only the capacities run re-reads.
	e := enginePool.Get().(*engine)
	defer e.release()
	work := e.workOn(g)
	if err := e.load(work); err != nil {
		return nil, err
	}
	free := e.free[:0]
	for _, c := range g.Channels {
		if c.Capacity == 0 {
			free = append(free, c.ID)
			work.Channels[c.ID].Capacity = lowerBound(c)
		}
	}
	e.free = free

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
		r, err := e.run(opts.Exec)
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

// lowerBound is the smallest capacity under which both endpoints of the
// channel can complete at least their largest single phase.
func lowerBound(c *Channel) int64 {
	lb := c.Prod.Max()
	if m := c.Cons.Max(); m > lb {
		lb = m
	}
	if c.Initial > lb {
		lb = c.Initial
	}
	if lb == 0 {
		lb = 1
	}
	return lb
}

// growthStep doubles the capacity (at least one largest burst), so the
// grow loop converges in logarithmically many oracle runs.
func growthStep(c *Channel, cur int64) int64 {
	s := c.Prod.Max()
	if m := c.Cons.Max(); m > s {
		s = m
	}
	if cur > s {
		s = cur
	}
	if s <= 0 {
		s = 1
	}
	return s
}

func pickGrowth(r *ExecResult, free []ChannelID) ChannelID {
	best := ChannelID(-1)
	var bestBlocks int64
	for _, cid := range free {
		if b := r.FullBlocks[cid]; b > bestBlocks {
			best, bestBlocks = cid, b
		}
	}
	return best
}

func noFullBlocks(r *ExecResult, free []ChannelID) bool {
	for _, cid := range free {
		if r.FullBlocks[cid] > 0 {
			return false
		}
	}
	return true
}
