// Package churn builds and drives the admission stack with an online
// workload: applications from a recurring catalogue arrive, run for a
// while and leave, while N workers map arrivals in parallel. It holds the
// one copy of what every driver needs — the Stack constructor, the
// resident Recycler and the catalogue-index request decoder — and the
// two scenario loops built on them: Run (straight into the backend,
// cmd/churn) and RunSoak (through the staged stream server, cmd/serve).
// The chaos harness and the HTTP service mode assemble the same pieces.
package churn

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// Options parameterises one stack and the scenario driven through it.
// The zero value is not runnable; start from Defaults or the cmd flags.
type Options struct {
	// Workers is the number of admission worker goroutines (min 1); Queue
	// the work-queue depth (0 = 16x workers).
	Workers int
	Queue   int
	// Apps is the number of application arrivals.
	Apps int
	// Mesh is the platform's width and height (0 = 8); Seed feeds the
	// platform generator.
	Mesh int
	Seed int64
	// Catalogue is the number of distinct application structures in
	// rotation (min 1); MaxUtil and PeriodNs shape them.
	Catalogue int
	MaxUtil   float64
	PeriodNs  int64
	// Resident is how many applications are kept running at once
	// (0 = 4x workers); see Recycler.
	Resident int
	// RegionSize gives each square block of the mesh with this side
	// length its own SRC<r>/SINK<r> stream endpoints, and arrivals are
	// pinned to them round-robin. 0 keeps the one global SRC0/SINK0 pair.
	RegionSize int
	// PrioMix assigns admission classes to arrivals as
	// "bestEffort:standard:critical" integer weights, e.g. "70:20:10",
	// deterministically by arrival index. Empty keeps all BestEffort.
	PrioMix string
	// FaultRate makes Run fail one pseudo-random processing tile at this
	// expected rate per arrival (0.01 = one per hundred arrivals): its
	// residents are relocated or dropped while the churn keeps running,
	// and every tile is restored before the pristine check. 0 = off.
	FaultRate float64
	// Journal attaches the durable hash-chained admission journal (nil =
	// off). One that recovered earlier segments (journal.OpenFile with
	// resume) is replayed into the platform before anything is served.
	// Stack.Close closes it.
	Journal *journal.File
	// ErrWriter receives unexpected stop errors; nil discards them.
	ErrWriter io.Writer
}

// Defaults mirrors the cmd/churn defaults: a moderate 4-worker scenario.
func Defaults() Options {
	return Options{
		Workers:   4,
		Apps:      400,
		Mesh:      8,
		Seed:      123,
		Catalogue: 64,
		MaxUtil:   0.15,
		PeriodNs:  40_000,
		Resident:  8,
	}
}

// WithDefaults resolves the zero-valued sizing fields — the one place
// the mesh, queue and resident defaults live. NewStack applies it; it is
// idempotent, so a caller that reports the values (cmd/churn) may apply it
// up front.
func (o Options) WithDefaults() Options {
	o.Workers = max(o.Workers, 1)
	o.Catalogue = max(o.Catalogue, 1)
	if o.Mesh <= 0 {
		o.Mesh = 8
	}
	if o.Queue <= 0 {
		o.Queue = 16 * o.Workers
	}
	if o.Resident <= 0 {
		o.Resident = 4 * o.Workers
	}
	return o
}

// ParsePrioMix parses "bestEffort:standard:critical" integer weights
// (e.g. "70:20:10"; missing trailing fields default to 0). An empty
// string is the all-BestEffort mix.
func ParsePrioMix(s string) ([model.NumPriorities]int, error) {
	var w [model.NumPriorities]int
	if s == "" {
		w[model.BestEffort] = 1
		return w, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) > model.NumPriorities {
		return w, fmt.Errorf("churn: priority mix %q has %d fields, max %d", s, len(parts), model.NumPriorities)
	}
	total := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return w, fmt.Errorf("churn: priority mix %q: field %d is not a non-negative integer", s, i)
		}
		w[i] = n
		total += n
	}
	if total == 0 {
		return w, fmt.Errorf("churn: priority mix %q has zero total weight", s)
	}
	return w, nil
}

// classOf deterministically assigns arrival i a class by spreading the
// weights over a repeating cycle of weight-sum slots.
func classOf(i int, w [model.NumPriorities]int) model.Priority {
	total := 0
	for _, n := range w {
		total += n
	}
	slot := i % total
	for c, n := range w {
		if slot < n {
			return model.Priority(c)
		}
		slot -= n
	}
	return model.BestEffort
}

// Arrival builds the i-th arrival of the scenario: application structures
// rotate through the catalogue, names stay unique, and with a PrioMix
// the admission class rotates through the configured weights (the name
// carries the class). endpointRegions is the number of SRC<r>/SINK<r>
// stream-endpoint pairs the platform carries (as laid out by
// SyntheticRegionPlatform); with more than one, arrivals are
// pinned round-robin to SRC<r>/SINK<r>. It parses PrioMix on every call;
// the drivers go through Stack.Arrival, which parsed it once.
func (o Options) Arrival(i, endpointRegions int) (*model.Application, *model.Library) {
	w, err := ParsePrioMix(o.PrioMix)
	if err != nil {
		// All BestEffort; NewStack rejects the string up front, so only a
		// direct call gets here.
		w, _ = ParsePrioMix("")
	}
	return o.arrival(i, endpointRegions, w)
}

// arrival is Arrival with the priority weights already parsed.
func (o Options) arrival(i, endpointRegions int, w [model.NumPriorities]int) (*model.Application, *model.Library) {
	s := i % o.Catalogue
	opts := workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 3 + s%3,
		Seed:      int64(s),
		MaxUtil:   o.MaxUtil,
		PeriodNs:  o.PeriodNs,
	}
	if endpointRegions > 1 {
		r := i % endpointRegions
		opts.SrcTile = fmt.Sprintf("SRC%d", r)
		opts.SinkTile = fmt.Sprintf("SINK%d", r)
	}
	name := fmt.Sprintf("app-%d", i)
	if o.PrioMix != "" {
		opts.Priority = classOf(i, w)
		name = fmt.Sprintf("app-%d-%s", i, opts.Priority)
	}
	app, lib := workload.Synthetic(opts)
	app.Name = name
	return app, lib
}

// Result is the outcome of one Run or RunSoak.
type Result struct {
	// Stats is the manager's counters.
	Stats   manager.Stats
	Elapsed time.Duration
	// Report is the stream server's ledger (RunSoak only).
	Report stream.Report
	// Clean reports that Run's ledger returned exactly to pristine after
	// full churn; Drift details the difference when it did not.
	Clean bool
	Drift arch.ResidualDiff
	// FaultRecoverTotal and FaultRecoverMax aggregate the per-fault
	// time-to-recover of the FaultRate injections (counts are in Stats).
	FaultRecoverTotal time.Duration
	FaultRecoverMax   time.Duration
	// JournalErr is the journal's first write or close failure.
	JournalErr error
	// LedgerErr is non-nil when the reservation invariants — or a soak's
	// exactly-one-outcome identity — failed; such a run proves nothing.
	LedgerErr error
	// ConfigErr is non-nil when the options were unusable; nothing ran.
	ConfigErr error
}

// AdmissionsPerSec is the run's admission throughput.
func (r Result) AdmissionsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Admitted) / r.Elapsed.Seconds()
}

// Run pushes Apps arrivals straight into the stack's backend, keeping up
// to Resident applications running at once, then stops everything and
// checks the ledger returned exactly to pristine.
func Run(o Options) Result {
	s, err := NewStack(o)
	if err != nil {
		return Result{ConfigErr: err}
	}
	o = s.Options
	pristine := s.Manager.Residual()
	faults := newFaultInjector(o.FaultRate, o.Seed, s.Manager)

	start := time.Now()
	// pending bounds how far the submitter runs ahead of the collector.
	pending := make(chan func() manager.Outcome, o.Resident)
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for wait := range pending {
			if out := wait(); out.Admitted {
				s.Recycler.Admitted(out.App)
			}
		}
		s.Recycler.Drain()
	}()
	for i := 0; i < o.Apps; i++ {
		wait, err := s.Backend.Submit(s.Arrival(i))
		if err != nil {
			if o.ErrWriter != nil {
				fmt.Fprintf(o.ErrWriter, "churn: submit app-%d: %v\n", i, err)
			}
			break
		}
		pending <- wait
		faults.step()
	}
	close(pending)
	s.Backend.Close()
	<-collectorDone
	// Full capacity must be back before the pristine check: a
	// still-failed tile reads as exhausted in the residual.
	faults.restoreAll()
	elapsed := time.Since(start)

	r := Result{Elapsed: elapsed, Stats: s.Manager.Stats(), JournalErr: s.Close()}
	faults.record(&r)
	if r.LedgerErr = s.Manager.CheckInvariants(); r.LedgerErr != nil {
		return r
	}
	final := s.Manager.Residual()
	r.Clean = final.Equal(pristine)
	if !r.Clean {
		r.Drift = pristine.Diff(final)
	}
	return r
}
