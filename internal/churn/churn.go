// Package churn builds the admission stack for an online workload:
// applications from a recurring catalogue arrive, run for a while and
// leave, while N workers map arrivals in parallel. It holds the one copy
// of what every driver needs — the scenario Options and its arrivals,
// the Stack constructor, the resident Recycler and the catalogue-index
// request decoder. The one scenario loop built on them is chaos.Run;
// cmd/serve's HTTP service mode assembles the same pieces.
package churn

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"rtsm/internal/journal"
	"rtsm/internal/model"
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
	// Journal attaches the durable hash-chained admission journal (nil =
	// off). One that recovered earlier segments (journal.OpenFile with
	// resume) is replayed into the platform before anything is served.
	// Stack.Close closes it.
	Journal *journal.File
}

// Defaults is a moderate 4-worker scenario: 400 arrivals from a
// 64-structure catalogue onto an 8×8 mesh, eight residents at a time.
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

// withDefaults resolves the zero-valued sizing fields — the one place
// the mesh, queue and resident defaults live. NewStack applies it after
// check has refused negative values.
func (o Options) withDefaults() Options {
	o.Workers = max(o.Workers, 1)
	o.Catalogue = max(o.Catalogue, 1)
	if o.Mesh == 0 {
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

// check refuses the values that would run a different scenario than the
// one asked for, naming the field; zero keeps each field's default.
func (o Options) check() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(o.Workers)}, {"Queue", int64(o.Queue)}, {"Mesh", int64(o.Mesh)}, {"Apps", int64(o.Apps)},
		{"Catalogue", int64(o.Catalogue)}, {"Resident", int64(o.Resident)}, {"RegionSize", int64(o.RegionSize)}, {"PeriodNs", o.PeriodNs},
	} {
		if f.v < 0 {
			return fmt.Errorf("churn: %s %d is negative", f.name, f.v)
		}
	}
	if !(o.MaxUtil >= 0 && o.MaxUtil <= 1) {
		return fmt.Errorf("churn: MaxUtil %g is outside [0, 1]", o.MaxUtil)
	}
	return nil
}

// ParsePrioMix parses "bestEffort:standard:critical" integer weights
// (e.g. "70:20:10"; missing trailing fields default to 0). An empty
// string is the all-BestEffort mix. A total weight that overflows an int
// is refused: the class cycle would wrap and run a different mix.
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
		if n > math.MaxInt-total {
			return w, fmt.Errorf("churn: priority mix %q: total weight overflows", s)
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

// arrival is Arrival with the priority weights already parsed. The
// structure and library come from the catalogue memo, and the arrival is
// a shallow copy with its own name and class: the processes, channels
// and library are shared with every other arrival of the entry and are
// read-only.
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
		opts.SrcTile = "SRC" + strconv.Itoa(r)
		opts.SinkTile = "SINK" + strconv.Itoa(r)
	}
	e := catalogueEntry(opts)
	app := *e.app
	app.Name = "app-" + strconv.Itoa(i)
	if o.PrioMix != "" {
		app.QoS.Priority = classOf(i, w)
		app.Name += "-" + app.QoS.Priority.String()
	}
	return &app, e.lib
}

// memo holds the catalogue structures generated in this process, keyed
// by generator options with Priority zero (the class is set per
// arrival): generating one costs tens of microseconds, a third of it
// seeding math/rand, and the drivers ask for the same few over and over.
// Past memoCap entries (the serve catalogue has 48) it generates
// without storing.
var memo = struct {
	sync.Mutex
	m map[workload.SynthOptions]synthesized
}{m: map[workload.SynthOptions]synthesized{}}

const memoCap = 4096

type synthesized struct {
	app *model.Application
	lib *model.Library
}

func catalogueEntry(opts workload.SynthOptions) synthesized {
	memo.Lock()
	e, ok := memo.m[opts]
	memo.Unlock()
	if !ok {
		e.app, e.lib = workload.Synthetic(opts)
		memo.Lock()
		if len(memo.m) < memoCap {
			memo.m[opts] = e
		}
		memo.Unlock()
	}
	return e
}
