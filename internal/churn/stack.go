package churn

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// Stack is one assembled admission stack: a synthetic platform and its
// manager with the reuse, repair and preemption engines all on, a
// pipeline behind stream.Backend, the optional journal, and the
// resident Recycler. Every driver — chaos.Run and cmd/serve's service
// mode — builds it with NewStack and layers its own front-end on
// Backend.
type Stack struct {
	// Options is the configuration with defaults resolved.
	Options Options
	// Manager owns the platform.
	Manager *manager.Manager
	// Backend is what arrivals are submitted to.
	Backend stream.Backend
	// Recycler bounds the resident population; a recovered stack starts
	// with its replayed residents queued in sorted-name order.
	Recycler *Recycler
	// Replayed counts the journal events NewStack replayed.
	Replayed int
	// Pristine is the fresh platform's residual, before any replay: what
	// the mesh returns to once every resource is restored and every
	// resident stopped.
	Pristine arch.Residual

	weights         [model.NumPriorities]int
	endpointRegions int
}

// NewStack builds the stack the options describe. A journal that
// recovered earlier segments is replayed into the fresh platform first,
// so the stack starts where the crashed one was last sealed, and its
// Recovered.Events are dropped: the journal lives as long as the stack,
// and the replayed residents keep only the deltas their plans hold. On
// error nothing is left running and the journal stays the caller's to
// close.
func NewStack(o Options) (*Stack, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	s := &Stack{Options: o}
	var err error
	if s.weights, err = ParsePrioMix(o.PrioMix); err != nil {
		return nil, err
	}
	var events []journal.Event
	if o.Journal != nil {
		events = o.Journal.Recovered.Events
	}
	plat := workload.SyntheticRegionPlatform(o.Mesh, o.Mesh, o.Seed, o.RegionSize)
	s.Pristine = plat.Residual()
	m, err := manager.ReplayEvents(plat, core.Config{}, events)
	if err != nil {
		return nil, fmt.Errorf("churn: replay: %w", err)
	}
	if o.Journal != nil {
		o.Journal.Recovered.Events = nil
		m.SetJournal(o.Journal.Writer)
	}
	s.Manager, s.Replayed = m, len(events)
	s.endpointRegions = len(plat.TilesOfType(arch.TypeSource))
	s.Reopen()
	// Only a recovered stack starts with residents.
	s.Recycler = &Recycler{stop: func(name string) error { return s.Backend.Stop(name) },
		cap: o.Resident, queue: ResidentNames(m)}
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

// ProcTiles lists a platform's failable processing tiles. Stream
// endpoints and filler tiles are spared: failing an arrival's pinned
// SRC/SINK would measure workload starvation, not recovery.
func ProcTiles(plat *arch.Platform) []arch.TileID {
	var ids []arch.TileID
	for _, t := range plat.Tiles {
		switch t.Type {
		case arch.TypeSource, arch.TypeSink, arch.TypeNone:
			continue
		}
		ids = append(ids, t.ID)
	}
	return ids
}

// Reopen gives the stack a fresh pipeline over the same manager: a
// stream.Server closes its backend on Shutdown, and a graceful restart
// serves on from the same platform state.
func (s *Stack) Reopen() {
	pipe := manager.NewPipeline(s.Manager, s.Options.Workers, s.Options.Queue)
	s.Backend = stream.NewPipelineBackend(s.Manager, pipe)
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
	// A victim mid-relocation cannot be stopped yet — requeue it so it
	// departs (or turns out evicted) on a later attempt instead of
	// leaking as an immortal resident. Any other error is typically "not
	// running": the resident was preempted and evicted, and its
	// reservations are already released.
	if err := r.stop(name); errors.Is(err, manager.ErrRelocating) {
		r.queue = append(r.queue, name)
	}
}
