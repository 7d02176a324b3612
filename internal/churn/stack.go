package churn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"rtsm/internal/core"
	"rtsm/internal/fleet"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// Stack is one assembled admission stack: a synthetic platform and
// manager per mesh with the configured reuse, repair and preemption
// engines, a pipeline (one mesh) or fleet router (several) behind
// stream.Backend, the optional journal, and the resident Recycler.
// Every driver — Run, RunSoak, the chaos harness, cmd/serve — builds it
// with NewStack and layers its own front-end on Backend.
type Stack struct {
	// Options is the configuration with defaults resolved.
	Options Options
	// Managers holds one manager (owning its platform) per mesh.
	Managers []*manager.Manager
	// Fleet is the placement router of a multi-mesh stack, nil otherwise.
	Fleet *fleet.Fleet
	// Backend is what arrivals are submitted to.
	Backend stream.Backend
	// Recycler bounds the resident population; a recovered stack starts
	// with its replayed residents queued in sorted-name order.
	Recycler *Recycler

	weights         [model.NumPriorities]int
	endpointRegions int
}

// NewStack builds the stack the options describe. A journal that
// recovered earlier segments is replayed into the fresh platform first,
// so the stack starts where the crashed one was last sealed. On error
// nothing is left running and the journal stays the caller's to close.
func NewStack(o Options) (*Stack, error) {
	o = o.WithDefaults()
	s := &Stack{Options: o}
	var err error
	if s.weights, err = ParsePrioMix(o.PrioMix); err != nil {
		return nil, err
	}
	if o.Batch < 0 {
		return nil, fmt.Errorf("churn: batch size %d is negative", o.Batch)
	}
	var events []journal.Event
	if o.Journal != nil {
		if o.Meshes > 1 {
			return nil, fmt.Errorf("churn: the journal replays one platform; %d meshes would interleave their hash chains", o.Meshes)
		}
		events = o.Journal.Recovered.Events
	}
	cfgs := make([]fleet.MeshConfig, o.Meshes)
	for i := range cfgs {
		// Distinct seeds give each mesh its own tile-type shuffle: a fleet
		// is homogeneous in geometry — a spilled arrival finds its
		// SRC<r>/SINK<r> pair on any sibling — but heterogeneous in layout.
		plat := workload.SyntheticRegionPlatform(o.Mesh, o.Mesh, o.Seed+int64(i)*101, o.RegionSize)
		m, err := manager.ReplayEvents(plat, core.Config{}, events)
		if err != nil {
			return nil, fmt.Errorf("churn: replay: %w", err)
		}
		m.SetMappingReuse(o.Reuse)
		m.SetRepair(o.Repair)
		m.SetPreemption(o.Preempt)
		if o.Journal != nil {
			m.SetJournal(o.Journal.Writer)
		}
		s.Managers = append(s.Managers, m)
		// Workers and queue slots are split evenly, so a fleet spends the
		// same worker budget as the single-mesh stack it is compared to.
		cfgs[i] = fleet.MeshConfig{Manager: m, Workers: max(1, o.Workers/o.Meshes), Queue: max(1, o.Queue/o.Meshes), Batch: o.Batch}
	}
	s.endpointRegions = s.Managers[0].Platform().RegionCount()
	if o.Meshes > 1 {
		if s.Fleet, err = fleet.New(fleet.Config{Seed: o.Seed}, cfgs...); err != nil {
			return nil, err
		}
		s.Backend = stream.NewFleetBackend(s.Fleet)
	} else {
		s.Reopen()
	}
	// Only a recovered (hence single-mesh) stack starts with residents.
	s.Recycler = &Recycler{stop: func(name string) error { return s.Backend.Stop(name) },
		cap: o.Resident, errw: o.ErrWriter, queue: ResidentNames(s.Managers[0])}
	return s, nil
}

// ResidentNames lists a manager's running applications, sorted by name.
func ResidentNames(m *manager.Manager) []string {
	var names []string
	for _, ad := range m.Running() {
		names = append(names, ad.App.Name)
	}
	sort.Strings(names)
	return names
}

// Reopen gives a single-mesh stack a fresh pipeline over the same
// manager: a stream.Server closes its backend on Shutdown, and a
// graceful restart serves on from the same platform state.
func (s *Stack) Reopen() {
	m := s.Managers[0]
	pipe := manager.NewPipeline(m, s.Options.Workers, s.Options.Queue)
	if s.Options.Batch > 1 {
		pipe.SetBatch(s.Options.Batch)
	}
	s.Backend = stream.NewPipelineBackend(m, pipe)
}

// Arrival is Options.Arrival for this stack's endpoint layout, with the
// priority mix parsed once at construction.
func (s *Stack) Arrival(i int) (*model.Application, *model.Library) {
	return s.Options.arrival(i, s.endpointRegions, s.weights)
}

// IndexRequest is the /admit wire format of the synthetic service: the
// index of the catalogue arrival to admit.
type IndexRequest struct {
	Index int `json:"index"`
}

// Decode is the stack's front.Decoder: an IndexRequest body becomes the
// deterministic arrival with that index.
func (s *Stack) Decode(req *http.Request) (*model.Application, *model.Library, error) {
	var body IndexRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		return nil, nil, fmt.Errorf("bad body: %w", err)
	}
	if body.Index < 0 {
		return nil, nil, fmt.Errorf("negative index %d", body.Index)
	}
	app, lib := s.Arrival(body.Index)
	return app, lib, nil
}

// Collect drains the server's results on a new goroutine, handing every
// admission to the Recycler — without departures the mesh fills up and
// then rejects everything. The returned channel closes once the results
// channel has (srv.Shutdown).
func (s *Stack) Collect(srv *stream.Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range srv.Results() {
			if res.Verdict == stream.VerdictAdmitted {
				s.Recycler.Admitted(res.App)
			}
		}
	}()
	return done
}

// CheckInvariants verifies every mesh's reservation ledger.
func (s *Stack) CheckInvariants() error {
	for i, m := range s.Managers {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("mesh %d: %w", i, err)
		}
	}
	return nil
}

// Close shuts the backend down (a no-op after a stream.Server did) and
// seals and closes the journal, returning its first write error.
func (s *Stack) Close() error {
	s.Backend.Close()
	if s.Options.Journal == nil {
		return nil
	}
	return s.Options.Journal.Close()
}

// Recycler keeps the resident population bounded so a scenario keeps
// admitting: admissions queue up in arrival order and each one past the
// cap departs the oldest. It is not safe for concurrent use — one
// collector goroutine owns it.
type Recycler struct {
	stop  func(name string) error
	cap   int
	errw  io.Writer
	queue []string
}

// Admitted records a new resident and, past the cap, stops the oldest.
func (r *Recycler) Admitted(name string) {
	r.queue = append(r.queue, name)
	if len(r.queue) > r.cap {
		r.stopOldest()
	}
}

// Drain stops every remaining resident.
func (r *Recycler) Drain() {
	for len(r.queue) > 0 {
		r.stopOldest()
	}
}

func (r *Recycler) stopOldest() {
	name := r.queue[0]
	r.queue = r.queue[1:]
	switch err := r.stop(name); {
	case err == nil:
	case errors.Is(err, manager.ErrRelocating):
		// A victim mid-relocation cannot be stopped yet — requeue it so it
		// departs (or turns out evicted) on a later attempt instead of
		// leaking as an immortal resident.
		r.queue = append(r.queue, name)
	case r.errw != nil:
		// Typically "not running": the resident was preempted and
		// evicted; its reservations are already released.
		fmt.Fprintf(r.errw, "churn: stop %s: %v\n", name, err)
	}
}
