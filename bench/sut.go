package main

// sut.go holds every call the benchmark makes into the program under
// test. No other file of the benchmark imports an rtsm package: later
// changes to the program may not edit bench/, so the functions called
// here are the compatibility surface (listed in README.md). The rest of
// the benchmark sees only the plain types declared in this file.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rtsm/internal/arch"
	"rtsm/internal/churn"
	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/energy"
	"rtsm/internal/front"
	"rtsm/internal/journal"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/noc"
	"rtsm/internal/stream"
	"rtsm/internal/workload"
)

// The service workloads run the `cmd/serve -listen -journal` default
// stack; these are that command's flag defaults.
const (
	svcMesh       = 12
	svcRegionSize = 3
	svcSeed       = 123
	svcWorkers    = 4
	svcQueue      = 16 * svcWorkers
	svcCatalogue  = 6
	svcMaxUtil    = 0.12
	svcPeriodNs   = 40_000
	svcPrioMix    = "60:30:10"
	// svcResidency is serve's resident cap (4x workers).
	svcResidency = 4 * svcWorkers
	// catalogueCycle is the index period of the serve catalogue: the
	// structure repeats every 6 indices, the region every 16 and the
	// admission class every 100.
	catalogueCycle = 1200
)

// ---------------------------------------------------------------------
// map-cold: direct core.Mapper.Map calls.

// mapCase is one cold mapping problem: an application, its library and
// the platform occupancy it is mapped against.
type mapCase struct {
	Name string
	app  *model.Application
	lib  *model.Library
	plat *arch.Platform
}

// mapOutcome is what one Map call answered.
type mapOutcome struct {
	Feasible bool
	Energy   float64
	res      *core.Result
}

// sutMapCases builds the fixed case set of the map-cold workload: the
// seven HIPERLAN/2 modes on the paper's Figure 2 platform, then 24
// synthetic applications (chain, fork-join and layered graphs of 3 to 10
// processes) on 6x6 and 8x8 meshes that already host 0, 12 or 24
// background applications committed with core.Apply.
func sutMapCases() ([]*mapCase, error) {
	var cases []*mapCase
	for _, mode := range workload.Hiperlan2Modes {
		cases = append(cases, &mapCase{
			Name: "hiperlan2/" + mode.Name,
			app:  workload.Hiperlan2(mode),
			lib:  workload.Hiperlan2Library(mode),
			plat: workload.Hiperlan2Platform(),
		})
	}
	shapes := []workload.Shape{workload.ShapeChain, workload.ShapeForkJoin, workload.ShapeLayered}
	k := 0
	for _, mesh := range []int{6, 8} {
		plat := workload.SyntheticPlatform(mesh, mesh, svcSeed)
		loaded := 0
		for _, background := range []int{0, 12, 24} {
			for ; loaded < background; loaded++ {
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: workload.ShapeChain, Processes: 3 + loaded%3, Seed: int64(1000 + loaded),
					MaxUtil: svcMaxUtil, PeriodNs: svcPeriodNs,
				})
				res, err := core.NewMapper(lib).Map(app, plat)
				if err != nil {
					return nil, fmt.Errorf("background app %d on %dx%d: %w", loaded, mesh, mesh, err)
				}
				if !res.Feasible {
					continue // a full mesh simply hosts fewer background apps
				}
				if err := core.Apply(plat, res); err != nil {
					return nil, fmt.Errorf("background app %d on %dx%d: %w", loaded, mesh, mesh, err)
				}
			}
			for j := 0; j < 4; j++ {
				shape := shapes[k%len(shapes)]
				procs := 3 + (k*3)%8
				app, lib := workload.Synthetic(workload.SynthOptions{
					Shape: shape, Processes: procs, Seed: int64(100 + k),
					MaxUtil: 0.2, PeriodNs: svcPeriodNs,
				})
				cases = append(cases, &mapCase{
					Name: fmt.Sprintf("synthetic/%dx%d+%d/%s-%d", mesh, mesh, background, shape, procs),
					app:  app, lib: lib, plat: plat.Clone(),
				})
				k++
			}
		}
	}
	return cases, nil
}

// Map runs the four-step mapper once on the case.
func (c *mapCase) Map() (mapOutcome, error) {
	res, err := core.NewMapper(c.lib).Map(c.app, c.plat)
	if err != nil {
		return mapOutcome{}, err
	}
	return mapOutcome{Feasible: res.Feasible, Energy: res.Energy.Total(), res: res}, nil
}

// Check validates a feasible mapping against the case's platform and
// returns the case's digest line: feasibility, tile assignment, routes
// and buffer capacities, with every map walked in key order.
func (c *mapCase) Check(o mapOutcome) (string, error) {
	if !o.Feasible {
		return c.Name + " infeasible", nil
	}
	if err := core.Validate(c.plat, o.res); err != nil {
		return "", fmt.Errorf("%s: mapping does not fit its platform: %w", c.Name, err)
	}
	mp := o.res.Mapping
	var b strings.Builder
	fmt.Fprintf(&b, "%s feasible", c.Name)
	for _, p := range c.app.Processes {
		if tid, ok := mp.Tile[p.ID]; ok {
			fmt.Fprintf(&b, " %s@%s", p.Name, c.plat.Tile(tid).Name)
		}
	}
	for _, ch := range c.app.Channels {
		if path, ok := mp.Route[ch.ID]; ok {
			fmt.Fprintf(&b, " %s:%v", ch.Name, path.Routers)
		}
		if buf, ok := mp.Buffers[ch.ID]; ok {
			fmt.Fprintf(&b, " %s=%d", ch.Name, buf)
		}
	}
	return b.String(), nil
}

// lineHash shortens a digest line to 16 hex digits of its SHA-256.
func lineHash(line string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(line)))[:16]
}

// ---------------------------------------------------------------------
// Layer probes: direct timed calls into the stateless layers, made only
// in traced runs and outside the measured passes.

// probeMapping times each layer a mapping passes through, from outside,
// on one mapped result (mapped, when known, is how long its Map took): step 4's CSDF analysis re-run with the mapper's
// own options, routing, energy evaluation, the plan/validate/commit/
// release cycle and snapshots on a scratch manager, and a template hit.
func probeMapping(tr *tracer, app *model.Application, lib *model.Library, plat *arch.Platform, res *core.Result, mapped time.Duration) error {
	if !res.Feasible {
		return nil
	}
	timed := func(metric string, f func()) time.Duration {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.observe(metric, d)
		return d
	}

	var mg *core.MappedGraph
	var err error
	step4 := timed("core.buildgraph_us", func() { mg, err = core.BuildMappedGraph(app, plat, res.Mapping) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	exec := csdf.ExecOptions{WarmupIterations: 4, MeasureIterations: 8, Observe: mg.Sink, Source: mg.Source}
	step4 += timed("csdf.buffersizes_ms", func() {
		_, err = csdf.BufferSizes(mg.Graph, csdf.BufferOptions{TargetPeriod: float64(app.QoS.PeriodNs), Exec: exec})
	})
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	if mapped > 0 {
		// What the Map call spent beyond its (refinements+1) step-4
		// analyses: steps 1 to 3 and the feedback loop's bookkeeping.
		tr.observe("core.map_other_ms", mapped-time.Duration(res.Refinements+1)*step4)
	}
	timed("csdf.execute_ms", func() { _, err = res.Graph.Execute(exec) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	timed("csdf.repetition_us", func() { _, err = csdf.Repetition(res.Graph) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	tr.add("csdf.actors", float64(len(res.Graph.Actors)))
	tr.add("csdf.channels", float64(len(res.Graph.Channels)))
	tr.add("core.refinements", float64(res.Refinements))

	for _, ch := range app.StreamChannels() {
		path, ok := res.Mapping.Route[ch.ID]
		if !ok || path.Hops() == 0 {
			continue
		}
		bps := ch.BytesPerPeriod() * 8 * 1_000_000_000 / app.QoS.PeriodNs
		timed("noc.route_us", func() {
			_, _ = noc.ShortestAvailable(plat, path.Routers[0], path.Routers[len(path.Routers)-1], bps)
		})
	}
	timed("energy.evaluate_us", func() {
		energy.DefaultParams().Evaluate(app, plat, core.AssignmentView(res.Mapping))
	})
	timed("manager.fingerprint_us", func() { _, err = manager.Fingerprint(app, lib) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}

	scratch := plat.Clone()
	var plan *core.Plan
	timed("core.plan_us", func() { plan, err = core.NewPlan(scratch, res) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	timed("core.validate_us", func() { err = plan.Validate(scratch) })
	if err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	timed("core.commit_us", func() { plan.Commit(scratch) })
	timed("core.release_us", func() { plan.Release(scratch) })

	m := manager.New(scratch, core.Config{})
	m.SetMappingReuse(true)
	var snap *arch.Snapshot
	timed("arch.snapshot_us", func() { snap = m.Snapshot() })
	timed("arch.clone_cow_us", func() { snap.Plat.CloneCoW() })
	timed("arch.residual_us", func() { m.Residual() })
	if out := m.Admit(app, lib); !out.Admitted {
		return nil // no template to hit
	}
	if err := m.Stop(app.Name); err != nil {
		return fmt.Errorf("probe %s: %w", app.Name, err)
	}
	var out manager.Outcome
	timed("manager.admit_hit_us", func() { out = m.Admit(app, lib) })
	if !out.Admitted {
		return fmt.Errorf("probe %s: warm re-admission refused: %v", app.Name, out.Err)
	}
	timed("manager.stop_us", func() { err = m.Stop(app.Name) })
	return err
}

// Probe runs the layer probes on one map-cold outcome; mapped is how
// long the Map call that produced it took.
func (c *mapCase) Probe(tr *tracer, o mapOutcome, mapped time.Duration) error {
	return probeMapping(tr, c.app, c.lib, c.plat, o.res, mapped)
}

// ---------------------------------------------------------------------
// Arrivals of the service workloads.

// arrival is one pre-generated admission request.
type arrival struct {
	Name string
	app  *model.Application
	lib  *model.Library
}

// sutArrivals generates arrival i from catalogue index indices[i] of the
// serve catalogue (6 chain structures x 16 region endpoint pairs x the
// 60:30:10 class cycle), renamed so names are unique within the table.
func sutArrivals(indices []int) []arrival {
	co := churn.Options{Catalogue: svcCatalogue, MaxUtil: svcMaxUtil, PeriodNs: svcPeriodNs, PrioMix: svcPrioMix}
	regions := (svcMesh / svcRegionSize) * (svcMesh / svcRegionSize)
	tab := make([]arrival, len(indices))
	for i, idx := range indices {
		app, lib := co.Arrival(idx, regions)
		app.Name = fmt.Sprintf("a%d", i)
		tab[i] = arrival{Name: app.Name, app: app, lib: lib}
	}
	return tab
}

// ---------------------------------------------------------------------
// The service stack: manager + pipeline + stream server + HTTP door +
// file journal, assembled exactly as cmd/serve's runListen does.

// service is one running admission service.
type service struct {
	plat     *arch.Platform
	m        *manager.Manager
	backend  stream.Backend
	srv      *stream.Server
	door     *front.Door
	jw       *journal.Writer
	jfile    *os.File
	jpath    string
	jcount   *countingWriter
	pristine arch.Residual

	collected chan struct{}
	mu        sync.Mutex
	admitted  uint64
	energy    float64
	templates []*manager.Admission
}

// svcCounters is the flat view of the stack's own ledgers the benchmark
// reads at pass boundaries.
type svcCounters struct {
	Admitted, Rejected                    uint64
	TemplateHits, StaleTemplates          uint64
	Repaired, FullMaps                    uint64
	Conflicts, Retries                    uint64
	Snapshots, SnapshotsShared, CoWFaults uint64
	Shed, DLQRecovered, BreakerOpens      uint64
	DoorRequests, DoorRetries             uint64
	JournalBytes, JournalLines            uint64
	JournalWrites, JournalWriteNs         uint64
	CollectedAdmits                       uint64
	EnergySum                             float64
}

// since returns the counters' growth since an earlier snapshot b.
func (c svcCounters) since(b svcCounters) svcCounters {
	c.Admitted -= b.Admitted
	c.Rejected -= b.Rejected
	c.TemplateHits -= b.TemplateHits
	c.StaleTemplates -= b.StaleTemplates
	c.Repaired -= b.Repaired
	c.FullMaps -= b.FullMaps
	c.Conflicts -= b.Conflicts
	c.Retries -= b.Retries
	c.Snapshots -= b.Snapshots
	c.SnapshotsShared -= b.SnapshotsShared
	c.CoWFaults -= b.CoWFaults
	c.Shed -= b.Shed
	c.DLQRecovered -= b.DLQRecovered
	c.BreakerOpens -= b.BreakerOpens
	c.DoorRequests -= b.DoorRequests
	c.DoorRetries -= b.DoorRetries
	c.JournalBytes -= b.JournalBytes
	c.JournalLines -= b.JournalLines
	c.JournalWrites -= b.JournalWrites
	c.JournalWriteNs -= b.JournalWriteNs
	c.CollectedAdmits -= b.CollectedAdmits
	c.EnergySum -= b.EnergySum
	return c
}

// countingWriter counts and times the journal's writes to its file;
// every line is one journal record (an event, or the seal after 64).
type countingWriter struct {
	w                       io.Writer
	mu                      sync.Mutex
	bytes, lines, calls, ns uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.w.Write(p)
	d := time.Since(t0)
	c.mu.Lock()
	c.bytes += uint64(n)
	c.lines += uint64(bytes.Count(p[:n], []byte{'\n'}))
	c.calls++
	c.ns += uint64(d)
	c.mu.Unlock()
	return n, err
}

// tracedBackend records a submit-to-outcome span around the pipeline
// backend, with the outcome's own wait/map/repair/commit durations as
// its children.
type tracedBackend struct {
	stream.Backend
	tr *tracer
}

func (b *tracedBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	start := time.Now()
	wait, err := b.Backend.Submit(app, lib)
	if err != nil {
		return nil, err
	}
	return b.wrap(app.Name, start, wait), nil
}

func (b *tracedBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	start := time.Now()
	wait, ok := b.Backend.TrySubmit(app, lib)
	if !ok {
		return nil, false
	}
	return b.wrap(app.Name, start, wait), true
}

func (b *tracedBackend) wrap(req string, start time.Time, wait func() manager.Outcome) func() manager.Outcome {
	return func() manager.Outcome {
		out := wait()
		b.tr.backend(req, start, time.Now(), out.Wait, out.Map, out.Repair, out.Commit)
		return out
	}
}

// sutStartService boots the stack over a fresh platform with a file
// journal at journalPath. The decoder is the benchmark's: it looks the
// arrival up by index in tab. A non-nil tracer wraps the backend, times
// the decoder and counts the journal's writes.
func sutStartService(tab []arrival, journalPath string, tr *tracer) (*service, error) {
	s := &service{jpath: journalPath, collected: make(chan struct{})}
	s.plat = workload.SyntheticRegionPlatform(svcMesh, svcMesh, svcSeed, svcRegionSize)
	s.pristine = s.plat.Residual()

	f, err := os.Create(journalPath)
	if err != nil {
		return nil, err
	}
	s.jfile = f
	var w io.Writer = f
	if tr != nil {
		s.jcount = &countingWriter{w: f}
		w = s.jcount
	}
	s.jw = journal.NewWriter(w, journal.Options{Syncer: f})

	s.m = manager.New(s.plat, core.Config{})
	s.m.SetMappingReuse(true)
	s.m.SetRepair(true)
	s.m.SetJournal(s.jw)
	pipe := manager.NewPipeline(s.m, svcWorkers, svcQueue)
	s.backend = stream.NewPipelineBackend(s.m, pipe)
	if tr != nil {
		s.backend = &tracedBackend{Backend: s.backend, tr: tr}
	}
	s.srv, err = stream.New(stream.Options{
		Backend: s.backend, Ingress: 256, ClassBuf: 64,
		DLQ: 1024, DLQBelow: 0.75, DLQRetries: 3, DLQEvery: 5 * time.Millisecond,
		Breaker: stream.BreakerConfig{
			Window: 500 * time.Millisecond, MinSamples: 20, Ratio: 0.5,
			Cooldown: 250 * time.Millisecond, Probes: 5,
		},
		Window: time.Second,
	})
	if err != nil {
		pipe.Close()
		f.Close()
		return nil, err
	}
	s.door, err = front.Listen(front.Options{
		Server: s.srv,
		Addr:   "127.0.0.1:0",
		Seed:   svcSeed,
		Decode: func(req *http.Request) (*model.Application, *model.Library, error) {
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			var body struct {
				Index int `json:"index"`
			}
			if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
				return nil, nil, fmt.Errorf("bad body: %w", err)
			}
			if body.Index < 0 || body.Index >= len(tab) {
				return nil, nil, fmt.Errorf("index %d outside the arrival table", body.Index)
			}
			a := tab[body.Index]
			if tr != nil {
				tr.decode(a.Name, t0, time.Now())
			}
			return a.app, a.lib, nil
		},
	})
	if err != nil {
		s.srv.Shutdown()
		f.Close()
		return nil, err
	}

	// The results channel must be drained, as serve's collector does;
	// here it also reads each admitted mapping's energy.
	go func() {
		defer close(s.collected)
		for res := range s.srv.Results() {
			if res.Verdict != stream.VerdictAdmitted || res.Outcome.Admission == nil {
				continue
			}
			s.mu.Lock()
			s.admitted++
			s.energy += res.Outcome.Admission.Result.Energy.Total()
			if tr != nil && len(s.templates) < 4*catalogueSlots {
				s.templates = append(s.templates, res.Outcome.Admission)
			}
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// catalogueSlots is the number of distinct fingerprints in the serve
// catalogue: 6 structures x 16 endpoint pairs share a 48-index period.
const catalogueSlots = 48

// URL is the door's /admit endpoint.
func (s *service) URL() string { return "http://" + s.door.Addr() + "/admit" }

// StopApp departs a resident through the backend, as serve's collector
// does.
func (s *service) StopApp(name string) error { return s.backend.Stop(name) }

// Counters snapshots the stack's ledgers.
func (s *service) Counters() svcCounters {
	st := s.m.Stats()
	rep := s.srv.Report()
	ds := s.door.Stats()
	c := svcCounters{
		Admitted: st.Admitted, Rejected: st.Rejected,
		TemplateHits: st.TemplateHits, StaleTemplates: st.StaleTemplates,
		Repaired: st.RepairedTemplates + st.RepairedConflicts,
		// Arrivals that met neither a template hit nor a stale pool ran
		// the four-step mapper first; FullRemaps are the fallbacks after.
		FullMaps:  st.Admitted + st.Rejected - st.TemplateHits - st.StaleTemplates + st.FullRemaps,
		Conflicts: st.Conflicts, Retries: st.Retries,
		Snapshots: st.Snapshots, SnapshotsShared: st.SnapshotsShared, CoWFaults: st.CoWFaults,
		Shed: rep.Shed(), DLQRecovered: rep.Recovered, BreakerOpens: rep.BreakerOpens,
		DoorRequests: ds.Requests, DoorRetries: ds.Retries,
	}
	if s.jcount != nil {
		s.jcount.mu.Lock()
		c.JournalBytes, c.JournalLines = s.jcount.bytes, s.jcount.lines
		c.JournalWrites, c.JournalWriteNs = s.jcount.calls, s.jcount.ns
		s.jcount.mu.Unlock()
	}
	s.mu.Lock()
	c.CollectedAdmits, c.EnergySum = s.admitted, s.energy
	s.mu.Unlock()
	return c
}

// Pristine reports whether the platform's free capacity is back to what
// it was at boot (every resident drained, nothing leaked).
func (s *service) Pristine() bool { return s.m.Residual().Equal(s.pristine) }

// ProbeTemplates runs the layer probes on up to limit distinct mappings
// the collector kept from this service's admissions.
func (s *service) ProbeTemplates(tr *tracer, limit int) error {
	s.mu.Lock()
	ads := s.templates
	s.mu.Unlock()
	base := workload.SyntheticRegionPlatform(svcMesh, svcMesh, svcSeed, svcRegionSize)
	seen := make(map[*core.Result]bool)
	for _, ad := range ads {
		if ad.Result == nil || seen[ad.Result] {
			continue
		}
		if len(seen) == limit {
			break
		}
		seen[ad.Result] = true
		if err := probeMapping(tr, ad.App, ad.Library(), base, ad.Result, 0); err != nil {
			return err
		}
	}
	return nil
}

// Close drains the door, shuts the stream down, closes the journal and
// checks the stack's own invariants: the exactly-one-outcome ledger and
// the manager's reservation invariants.
func (s *service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.door.Drain(ctx)
	rep := s.srv.Shutdown()
	<-s.collected
	jerr := s.jw.Close()
	ferr := s.jfile.Close()
	switch {
	case derr != nil:
		return derr
	case jerr != nil:
		return fmt.Errorf("journal: %w", jerr)
	case ferr != nil:
		return fmt.Errorf("journal: %w", ferr)
	case !rep.LedgerOK():
		return errors.New("stream ledger mismatch: submitted != admitted + rejected + shed + expired")
	}
	return s.m.CheckInvariants()
}

// ReplayMatches recovers the closed service's journal into a fresh
// platform and requires it bit-identical to the live one; it returns
// the number of events replayed.
func (s *service) ReplayMatches() (int, error) {
	rec, err := journal.RecoverFiles(journal.SegmentPaths(s.jpath)...)
	if err != nil {
		return 0, err
	}
	fresh := workload.SyntheticRegionPlatform(svcMesh, svcMesh, svcSeed, svcRegionSize)
	m, err := manager.ReplayEvents(fresh, core.Config{}, rec.Events)
	if err != nil {
		return 0, err
	}
	return len(rec.Events), arch.PlatformsIdentical(s.plat, m.Platform())
}

// ---------------------------------------------------------------------
// restart: recovery of journal prefixes.

// restartFixture is a journal written by a churn run plus, per
// checkpoint, the journal prefix sealed at that point and a clone of the
// platform as it was then.
type restartFixture struct {
	Prefixes []restartPrefix
	Accepted int
	Energy   float64
}

type restartPrefix struct {
	Arrivals int
	path     string
	want     *arch.Platform
}

// recovery is one timed restart.
type recovery struct {
	Events                  int
	Verify, Replay, Compare time.Duration
	Identical               bool
}

// sutBuildRestart drives the table through manager.Admit/Stop at the
// given residency with a file journal in dir, flushing the journal and
// cloning the platform after each checkpoint's arrival count.
func sutBuildRestart(tab []arrival, residency int, checkpoints []int, dir string) (*restartFixture, error) {
	plat := workload.SyntheticRegionPlatform(svcMesh, svcMesh, svcSeed, svcRegionSize)
	full := filepath.Join(dir, "restart.jsonl")
	f, err := os.Create(full)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jw := journal.NewWriter(f, journal.Options{Syncer: f})
	m := manager.New(plat, core.Config{})
	m.SetMappingReuse(true)
	m.SetRepair(true)
	m.SetJournal(jw)

	fx := &restartFixture{}
	var residents []string
	next := 0
	for i, a := range tab {
		out := m.Admit(a.app, a.lib)
		if out.Admitted {
			fx.Accepted++
			fx.Energy += out.Admission.Result.Energy.Total()
			residents = append(residents, a.Name)
			if len(residents) > residency {
				if err := m.Stop(residents[0]); err != nil {
					return nil, err
				}
				residents = residents[1:]
			}
		}
		if next < len(checkpoints) && i+1 == checkpoints[next] {
			jw.Flush()
			raw, err := os.ReadFile(full)
			if err != nil {
				return nil, err
			}
			p := filepath.Join(dir, fmt.Sprintf("restart-%d.jsonl", i+1))
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				return nil, err
			}
			fx.Prefixes = append(fx.Prefixes, restartPrefix{Arrivals: i + 1, path: p, want: plat.Clone()})
			next++
		}
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}
	return fx, m.CheckInvariants()
}

// Recover performs one full restart from the i-th prefix: verify the
// chain, replay the events into a fresh platform, compare with the
// clone taken when the prefix was sealed.
func (fx *restartFixture) Recover(i int) (recovery, error) {
	p := fx.Prefixes[i]
	t0 := time.Now()
	rec, err := journal.RecoverFiles(p.path)
	if err != nil {
		return recovery{}, err
	}
	t1 := time.Now()
	fresh := workload.SyntheticRegionPlatform(svcMesh, svcMesh, svcSeed, svcRegionSize)
	m, err := manager.ReplayEvents(fresh, core.Config{}, rec.Events)
	if err != nil {
		return recovery{}, err
	}
	t2 := time.Now()
	same := arch.PlatformsIdentical(p.want, m.Platform()) == nil
	t3 := time.Now()
	return recovery{
		Events: len(rec.Events), Verify: t1.Sub(t0), Replay: t2.Sub(t1), Compare: t3.Sub(t2), Identical: same,
	}, nil
}
