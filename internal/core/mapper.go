// Package core implements the paper's contribution: the run-time spatial
// mapper of Hölzenspies, Hurink, Kuper and Smit (DATE 2008). Given a
// streaming application (a KPN with QoS constraints), a library of
// implementations, and the current state of a heterogeneous tiled MPSoC,
// it produces a feasible, low-energy spatial mapping in four hierarchical
// steps with iterative refinement (paper §3):
//
//  1. assign an implementation (and thereby a tile type) to every process,
//     ordered by desirability, with first-fit packing onto concrete tiles;
//  2. improve the process-to-tile assignment by local search over moves
//     and swaps within a tile type, scored by Manhattan-distance
//     communication cost;
//  3. assign channels to NoC paths in order of non-increasing throughput,
//     reserving guaranteed-throughput lanes incrementally;
//  4. verify the QoS constraints on the CSDF graph of the mapped
//     application (throughput, latency, buffer capacities) and feed
//     violations back to earlier steps.
package core

import (
	"fmt"
	"sync"

	"rtsm/internal/arch"
	"rtsm/internal/csdf"
	"rtsm/internal/energy"
	"rtsm/internal/model"
	"rtsm/internal/noc"
)

// Strategy selects how step 2 walks the local-search neighbourhood.
type Strategy int

const (
	// FirstImprovement scans processes in declaration order, evaluating
	// each process's best reassignment and accepting the first strict
	// improvement. This is the behaviour that reproduces the paper's
	// Table 2 iteration-by-iteration.
	FirstImprovement Strategy = iota
	// BestImprovement evaluates every process's best reassignment each
	// iteration and applies the globally best improving one.
	BestImprovement
)

// CommCostModel selects the communication cost step 2 minimises.
type CommCostModel int

const (
	// HopSum scores an assignment by the plain sum of Manhattan distances
	// over all stream channels, the metric of the paper's Table 2.
	HopSum CommCostModel = iota
	// TrafficWeighted scores by estimated energy: per-channel traffic ×
	// distance × hop energy, plus idle energy of powered tiles. This is
	// the metric a production mapper minimises.
	TrafficWeighted
)

// RouterPolicy selects the step-3 routing algorithm.
type RouterPolicy int

const (
	// Adaptive uses capacity-aware shortest paths (the paper's step 3).
	Adaptive RouterPolicy = iota
	// XYOnly uses dimension-ordered routing; it fails rather than detour.
	XYOnly
)

// Config tunes the mapper. The zero value reproduces the paper's
// behaviour; the ablation fields exist for the E10 experiments.
type Config struct {
	// Energy parameterises all energy estimates. Zero value selects
	// energy.DefaultParams.
	Energy *energy.Params
	// Strategy and CommCost control step 2.
	Strategy Strategy
	CommCost CommCostModel
	// ArbitraryOrder disables desirability ordering in step 1, taking
	// processes in declaration order instead (ablation).
	ArbitraryOrder bool
	// UnsortedChannels disables the non-increasing-throughput sort in
	// step 3 (ablation).
	UnsortedChannels bool
	// NoStep2 skips local search entirely, keeping step 1's greedy
	// first-fit placement (ablation: "greedy-only").
	NoStep2 bool
	// NoRefinement disables the step-4 feedback loop (ablation).
	NoRefinement bool
	// Router selects the step-3 routing algorithm.
	Router RouterPolicy
	// BufferOptions tunes the step-4 buffer sizing.
	TightenBuffers bool
}

func (c Config) energyParams() energy.Params {
	if c.Energy != nil {
		return *c.Energy
	}
	return energy.DefaultParams()
}

const (
	// maxStep2Iterations bounds step-2 candidate evaluations.
	maxStep2Iterations = 10000
	// maxRefinements bounds the step-4 feedback loop.
	maxRefinements = 8
	// maxRepairRounds bounds Repair's refinement loop. Repair is the
	// cheap path: it either succeeds within a few rounds — little
	// changed, little to re-decide — or should hand off to the full map
	// instead of burning a full refinement budget first.
	maxRepairRounds = 3
)

// Mapper binds a configuration and an implementation library.
type Mapper struct {
	Lib *model.Library
	Cfg Config
}

// NewMapper returns a mapper over the given library with the paper's
// default configuration.
func NewMapper(lib *model.Library) *Mapper { return &Mapper{Lib: lib} }

// Mapping is a complete spatial mapping: implementation choice, tile
// assignment, channel routes and stream buffer sizes.
type Mapping struct {
	App *model.Application
	// Impl holds the chosen implementation per mappable process; pinned
	// processes map to nil.
	Impl map[model.ProcessID]*model.Implementation
	// Tile holds the tile of every non-control process, pinned included.
	Tile map[model.ProcessID]arch.TileID
	// Route holds the NoC path of every stream channel whose endpoints
	// sit on different tiles.
	Route map[model.ChannelID]noc.Path
	// Buffers holds the stream buffer capacity per channel in tokens,
	// computed by step 4.
	Buffers map[model.ChannelID]int64
}

// Result is the outcome of one Map call.
type Result struct {
	Mapping *Mapping
	// Feasible reports whether step 4 verified all QoS constraints.
	Feasible bool
	// Energy is the estimated energy per QoS period of the mapping.
	Energy energy.Breakdown
	// Graph is the CSDF graph of the mapped application (the paper's
	// Figure 3), with router actors inserted per hop and buffer
	// capacities installed.
	Graph *csdf.Graph
	// Mapped relates Graph back to the mapping: actor-to-tile placement
	// and the channel-to-edge correspondence. The validation simulator
	// consumes it.
	Mapped *MappedGraph
	// Analysis is the step-4 self-timed verification run on Graph.
	Analysis *csdf.ExecResult
	// Trace records every decision for inspection; Table 2 of the paper
	// is Trace.Step2.
	Trace *Trace
	// Refinements counts completed feedback iterations.
	Refinements int
	// Repaired marks a result produced by Repair rather than a full
	// four-step map; Pinned counts the process placements it preserved
	// from the stale mapping (zero for full maps).
	Repaired bool
	Pinned   int
}

// TileOf returns the tile the mapping places process p on.
func (r *Result) TileOf(p model.ProcessID) (arch.TileID, bool) {
	t, ok := r.Mapping.Tile[p]
	return t, ok
}

// RouteOf returns the NoC path of stream channel c (empty within a tile).
func (r *Result) RouteOf(c model.ChannelID) (noc.Path, bool) {
	p, ok := r.Mapping.Route[c]
	return p, ok
}

// BufferOf returns the buffer capacity step 4 sized for c, in tokens.
func (r *Result) BufferOf(c model.ChannelID) (int64, bool) {
	b, ok := r.Mapping.Buffers[c]
	return b, ok
}

// Map runs the four-step algorithm with iterative refinement and returns
// the best feasible mapping found, or, if none is feasible within the
// refinement budget, the last attempt with Feasible=false. The caller's
// platform is not mutated; existing reservations on it are honoured, and
// Apply commits the result to it.
func (m *Mapper) Map(app *model.Application, plat *arch.Platform) (*Result, error) {
	work := workPool.Get().(*arch.Platform)
	defer workPool.Put(work)
	return m.mapOn(app, plat, work)
}

// mapOn is Map with the working platform every attempt overwrites
// supplied by the caller.
func (m *Mapper) mapOn(app *model.Application, plat, work *arch.Platform) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	ix := newAppIndex(app)
	if err := m.checkAdequacyPossible(ix, plat); err != nil {
		return nil, err
	}
	tabu := newTabu()
	var best, last *Result
	refinements := 0
	for round := 0; round <= maxRefinements; round++ {
		res, fb, err := m.attempt(ix, plat, work, tabu, nil)
		if err != nil {
			if best != nil {
				break
			}
			return nil, err
		}
		res.Refinements = refinements
		last = res
		if res.Feasible && (best == nil || res.Energy.Total() < best.Energy.Total()) {
			best = res
		}
		if fb == nil || m.Cfg.NoRefinement {
			break
		}
		if !tabu.apply(fb) {
			break // feedback already known: no new information, stop
		}
		refinements++
	}
	if best != nil {
		best.Refinements = refinements
		return best, nil
	}
	if last == nil {
		return nil, fmt.Errorf("core: no mapping attempt completed for %q", app.Name)
	}
	return last, nil
}

// checkAdequacyPossible verifies that every mappable process has at least
// one implementation whose tile type exists on the platform — the paper's
// precondition for an adequate mapping.
func (m *Mapper) checkAdequacyPossible(ix *appIndex, plat *arch.Platform) error {
	for _, p := range ix.procs {
		ims := m.Lib.For(p.Name)
		if len(ims) == 0 {
			return fmt.Errorf("core: process %q has no implementations", p.Name)
		}
		ok := false
		for _, im := range ims {
			if len(plat.TilesOfType(im.TileType)) > 0 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("core: no tile on %q can run any implementation of %q", plat.Name, p.Name)
		}
	}
	for _, p := range ix.app.Processes {
		if p.PinnedTile != "" && plat.TileByName(p.PinnedTile) == nil {
			return fmt.Errorf("core: process %q pinned to unknown tile %q", p.Name, p.PinnedTile)
		}
	}
	return nil
}

// workPool recycles the working platforms attempts reserve on. A working
// copy never outlives the call that took it: a Result holds IDs, shared
// descriptions and slices of its own, never a *Tile or *Link of the copy.
var workPool = sync.Pool{New: func() any { return new(arch.Platform) }}

// attempt runs steps 1–4 once on work, overwritten with a copy of the
// platform first. A non-nil seed pre-installs salvaged decisions from a
// stale mapping: its placements are reserved up front and locked against
// steps 1 and 2, its routes are reserved and skipped by step 3, so only
// what the seed leaves open is re-decided (the incremental repair path).
// Tests call it directly to read the reservations the mapper made.
func (m *Mapper) attempt(ix *appIndex, plat, work *arch.Platform, tabu *tabu, seed *seedMapping) (*Result, *feedback, error) {
	app := ix.app
	plat.CopyInto(work)
	trace := &Trace{}
	mapping := &Mapping{
		App:     app,
		Impl:    make(map[model.ProcessID]*model.Implementation),
		Tile:    make(map[model.ProcessID]arch.TileID),
		Route:   make(map[model.ChannelID]noc.Path),
		Buffers: make(map[model.ChannelID]int64),
	}
	// Pinned endpoints are pre-placed.
	for _, p := range app.Processes {
		if p.Control {
			continue
		}
		if p.PinnedTile != "" {
			mapping.Tile[p.ID] = work.TileByName(p.PinnedTile).ID
			mapping.Impl[p.ID] = nil
		}
	}
	if err := seed.install(app, work, mapping); err != nil {
		return nil, nil, err
	}

	if fb := m.step1(ix, work, mapping, tabu, trace); fb != nil {
		return m.infeasibleResult(app, work, mapping, trace), fb, nil
	}
	if !m.Cfg.NoStep2 {
		m.step2(ix, work, mapping, seed.lockedSet(), trace)
	}
	if fb := m.step3(ix, work, mapping, trace); fb != nil {
		return m.infeasibleResult(app, work, mapping, trace), fb, nil
	}
	res, fb := m.step4(ix, work, mapping, trace)
	return res, fb, nil
}

func (m *Mapper) infeasibleResult(app *model.Application, work *arch.Platform, mapping *Mapping, trace *Trace) *Result {
	params := m.Cfg.energyParams()
	return &Result{
		Mapping:  mapping,
		Feasible: false,
		Energy:   params.Evaluate(app, work, AssignmentView(mapping)),
		Trace:    trace,
	}
}

// AssignmentView projects a mapping into the energy model's assignment
// form (implementation, tile and hop count per entity), for callers that
// want itemised energy reports.
func AssignmentView(mp *Mapping) energy.Assignment {
	hops := make(map[model.ChannelID]int, len(mp.Route))
	for cid, path := range mp.Route {
		hops[cid] = path.Hops()
	}
	return energy.Assignment{Impl: mp.Impl, Tile: mp.Tile, Hops: hops}
}

const utilEps = 1e-9

func utilisation(t *arch.Tile, cyclesPerPeriod, periodNs int64) float64 {
	return utilisationOf(t.CycleBudget(periodNs), cyclesPerPeriod)
}

func utilisationOf(budget, cyclesPerPeriod int64) float64 {
	if budget <= 0 {
		return 2 // a tile with no clock can host nothing
	}
	return float64(cyclesPerPeriod) / float64(budget)
}

// channelBps returns the guaranteed throughput a channel needs.
func channelBps(c *model.Channel, periodNs int64) int64 {
	// bytes per period → bytes per second, rounded up.
	return (c.BytesPerPeriod()*1_000_000_000 + periodNs - 1) / periodNs
}

// Adequate reports whether every mapped process runs an implementation
// matching its tile's type (paper §3).
func (mp *Mapping) Adequate(plat *arch.Platform) bool {
	for pid, im := range mp.Impl {
		if im == nil {
			continue
		}
		tid, ok := mp.Tile[pid]
		if !ok || plat.Tile(tid).Type != im.TileType {
			return false
		}
	}
	return true
}

// Adherent reports whether the mapping is adequate and no tile or link is
// overcommitted on the given platform (paper §3). It checks the
// reservation state, so call it on a platform the mapping was applied to.
func (mp *Mapping) Adherent(plat *arch.Platform) bool {
	if !mp.Adequate(plat) {
		return false
	}
	for _, t := range plat.Tiles {
		if t.ReservedMem > t.MemBytes || t.ReservedUtil > 1.0+utilEps {
			return false
		}
		if t.NICapBps > 0 && (t.ReservedInBps > t.NICapBps || t.ReservedOutBps > t.NICapBps) {
			return false
		}
	}
	for _, l := range plat.Links {
		if l.ReservedBps > l.CapBps {
			return false
		}
	}
	return true
}
