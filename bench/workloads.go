package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them.
var workloadNames = []string{"map-cold", "door-warm", "door-contend", "door-churn", "restart"}

// scenario is one workload: a fixed sequence of operations (a pass) that can be
// replayed from an equivalent start state any number of times.
type scenario interface {
	// Setup builds the inputs from the seed and brings the program to
	// the state the first measured pass starts from.
	Setup() error
	// Pass runs the sequence once. A traced pass records spans.
	Pass(traced bool) (passResult, error)
	// Teardown runs the final output checks and releases everything
	// Setup built; it returns the number of operations' worth of failed
	// checks.
	Teardown() (failed int, err error)
	// Layers fills the per-layer metrics that come from counters.
	Layers(tr *tracer)
}

// params is what a workload is built from.
type params struct {
	seed  int64
	quick bool
	dir   string  // scratch directory for journals, inside the checkout
	tr    *tracer // nil in an untraced run
}

func newWorkload(name string, p params) (scenario, error) {
	switch name {
	case "map-cold":
		return &mapCold{p: p}, nil
	case "door-warm":
		return &doorLoad{p: p, conns: 1, residency: 0, ops: quickCut(p, 2000), longLived: true}, nil
	case "door-contend":
		return &doorLoad{p: p, conns: 2, residency: 0, ops: quickCut(p, 2000), longLived: true}, nil
	case "door-churn":
		return &doorLoad{p: p, conns: 1, residency: svcResidency, ops: quickCut(p, 240)}, nil
	case "restart":
		return &restart{p: p, arrivals: quickCut(p, 400)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// quickCut cuts a pass to a tenth in -quick mode.
func quickCut(p params, n int) int {
	if p.quick {
		return n / 10
	}
	return n
}

// catalogueIndices draws the arrival sequence from the seed: serve's own
// generator order (consecutive catalogue indices, so any 16 consecutive
// arrivals touch 16 different regions and any 6 consecutive arrivals 6
// different structures), entered at a seeded multiple of 48. Every seed
// therefore sends the same (structure, region) sequence — the mappings,
// and with them the counts and the energy, repeat across seeds — while
// the admission class of each arrival (index mod 100) and with it the
// queueing path it takes differ. The catalogue itself is the program's
// and stays fixed: the driver's acceptance rule takes each metric's
// spread across seeds, and a sequence that changes which structures
// meet as residents moves allocs_per_op by 7 % and energy by 3 %.
//
// With two connections, operation i belongs to connection i mod 2, and
// the connections draw from opposite edges of the mesh: connection 0
// from the regions of column 0 (index = 0 mod 4), connection 1 from
// column 3 (index = 3 mod 4), six routers apart. Their commits run
// concurrently but almost never touch the same tiles (the mapper is
// free to place a process outside its endpoints' region, so a rare
// template does), and the two-connection workload repeats nearly as
// well as the others.
//
// span is how many steps the sequence takes before it starts over: the
// whole cycle, or — in -quick mode — 8, so that a smoke test warms 8
// templates and not 48.
func catalogueIndices(seed int64, n, conns, span int) []int {
	offset := catalogueSlots * rand.New(rand.NewSource(seed)).Intn(catalogueCycle/catalogueSlots)
	idx := make([]int, n)
	for i := range idx {
		switch {
		case conns == 1:
			idx[i] = (offset + i%span) % catalogueCycle
		case i%2 == 0:
			idx[i] = (offset + 4*(i/2%span)) % catalogueCycle
		default:
			idx[i] = (offset + 4*(i/2%span) + 3) % catalogueCycle
		}
	}
	return idx
}

// span returns catalogueIndices' span for the run's mode.
func (p params) span() int {
	if p.quick {
		return 8
	}
	return catalogueCycle
}

// ---------------------------------------------------------------------

// mapCold is the paper's own number (section 4.5): the cost of one
// spatial mapping at application start, with no service layer involved.
type mapCold struct {
	p     params
	cases []*mapCase
	order []int
	want  []mapOutcome // the checked answers of the warm-up pass
}

func (w *mapCold) Setup() error {
	cases, err := sutMapCases()
	if err != nil {
		return err
	}
	if w.p.quick {
		third := cases[:0]
		for i := 0; i < len(cases); i += 3 {
			third = append(third, cases[i])
		}
		cases = third
	}
	w.cases = cases
	w.order = rand.New(rand.NewSource(w.p.seed)).Perm(len(cases))
	w.want = make([]mapOutcome, len(cases))
	// Warm-up pass, untimed; its answers are checked in Teardown and every
	// measured pass must repeat them.
	for _, i := range w.order {
		if w.want[i], err = cases[i].Map(); err != nil {
			return fmt.Errorf("%s: %w", cases[i].Name, err)
		}
	}
	return nil
}

func (w *mapCold) Pass(traced bool) (passResult, error) {
	res := passResult{OpNs: make([]float64, len(w.cases))}
	var m meter
	m.start()
	for k, i := range w.order {
		t0 := time.Now()
		out, err := w.cases[i].Map()
		t1 := time.Now()
		res.OpNs[k] = float64(t1.Sub(t0))
		switch {
		case err != nil || out.Feasible != w.want[i].Feasible || !sameEnergy(out.Energy, w.want[i].Energy):
			fmt.Fprintf(os.Stderr, "bench: %s: answer changed between passes: feasible %v, energy %v; was %v, %v (%v)\n",
				w.cases[i].Name, out.Feasible, out.Energy, w.want[i].Feasible, w.want[i].Energy, err)
			res.Failed++
		case out.Feasible:
			res.Accepted++
			res.Energy += out.Energy
		}
		if traced {
			w.p.tr.direct("core.map", w.cases[i].Name, t0, t1)
			w.p.tr.observe("core.map_ms", t1.Sub(t0))
		}
	}
	m.stop(&res)
	if traced {
		w.p.tr.endPass()
	}
	return res, nil
}

// sameEnergy compares two energy totals of the same mapping: the model
// sums floats in map order, so the last bits differ between calls.
func sameEnergy(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

// goldenPath holds the digest line hashes of the case set: one line per
// case, "<sha256 of the digest line, 16 hex digits> <case name>".
const goldenPath = "bench/testdata/map-cold.digest"

// updateGolden (-update-golden) rewrites goldenPath instead of checking
// against it.
var updateGolden bool

func goldenLines(cases []*mapCase, outs []mapOutcome) ([]string, int) {
	var lines []string
	invalid := 0
	for i, c := range cases {
		line, err := c.Check(outs[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			invalid++
			line = c.Name + " invalid"
		}
		lines = append(lines, lineHash(line)+" "+c.Name)
	}
	return lines, invalid
}

func (w *mapCold) Teardown() (int, error) {
	lines, failed := goldenLines(w.cases, w.want)
	if updateGolden {
		return failed, os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return failed, fmt.Errorf("map-cold golden digest: %w", err)
	}
	golden := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		golden[l] = true
	}
	for _, l := range lines {
		if !golden[l] {
			fmt.Fprintf(os.Stderr, "bench: map-cold: mapping differs from %s: %s\n", goldenPath, l)
			failed++
		}
	}
	return failed, nil
}

func (w *mapCold) Layers(tr *tracer) {
	for i, c := range w.cases {
		t0 := time.Now()
		out, err := c.Map()
		if err == nil {
			err = c.Probe(tr, out, time.Since(t0))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", w.cases[i].Name, err)
		}
	}
}

// ---------------------------------------------------------------------

// doorLoad is an HTTP closed loop against the serve stack: each of conns
// connections sends its next /admit only after the previous answer, and
// the client itself stops the oldest resident once more than residency
// are running, so a one-connection pass is fully deterministic.
type doorLoad struct {
	p         params
	conns     int
	residency int
	ops       int
	longLived bool // one warmed server for all passes, not one per pass

	tab         []arrival
	warm        int // warm-up arrivals at the end of tab
	genPerArr   time.Duration
	plain, trcd *service // long-lived servers: untraced and traced
	clients     []*http.Client
	passes      int
	replayed    bool
	// Of the traced service: its counters when its warm-up ended, what
	// it counted since (over the last traced pass when every pass boots
	// its own), and the service itself for the layer probes.
	base, counted svcCounters
	probe         *service
}

// warmup is the untimed prefix of a long-lived server's life: two
// passes over the 48-fingerprint catalogue, so that every measured
// admission finds its template.
const warmup = 2 * catalogueSlots

func (w *doorLoad) journal(tag string) string {
	return filepath.Join(w.p.dir, fmt.Sprintf("%s-%d.jsonl", tag, w.passes))
}

func (w *doorLoad) Setup() error {
	t0 := time.Now()
	idx := catalogueIndices(w.p.seed, w.ops, w.conns, w.p.span())
	w.warm = 0
	if w.longLived {
		// The sequence's own head covers every fingerprint it uses, twice.
		w.warm = min(warmup, 4*w.p.span())
		idx = append(idx, idx[:w.warm]...)
	}
	w.tab = sutArrivals(idx)
	w.genPerArr = time.Since(t0) / time.Duration(len(idx))
	w.clients = nil
	for c := 0; c < w.conns; c++ {
		w.clients = append(w.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	if !w.longLived {
		// The first pass's server: booting one is part of set-up.
		var err error
		w.plain, err = sutStartService(w.tab, w.journal("churn"), nil)
		return err
	}
	boot := func(tr *tracer, tag string) (*service, error) {
		s, err := sutStartService(w.tab, w.journal(tag), tr)
		if err != nil {
			return nil, err
		}
		for k := w.ops; k < w.ops+w.warm; k++ {
			if o := w.admit(s, w.clients[0], k, nil); o.failed {
				s.Close()
				return nil, fmt.Errorf("warm-up arrival %d failed: %s", k, o.detail)
			} else if o.accepted {
				if err := s.StopApp(w.tab[k].Name); err != nil {
					s.Close()
					return nil, err
				}
			}
		}
		return s, nil
	}
	var err error
	if w.plain, err = boot(nil, "plain"); err != nil {
		return err
	}
	if w.p.tr != nil {
		if w.trcd, err = boot(w.p.tr, "traced"); err != nil {
			return err
		}
		w.base = w.trcd.Counters()
	}
	return nil
}

// opResult is one /admit exchange as the client saw it.
type opResult struct {
	ns       float64
	accepted bool
	failed   bool
	detail   string
}

// admit sends arrival i and waits for the verdict. 200 is an admission;
// 503 is the service saying "no room" or "busy", a correct answer; any
// other status, a transport error or an unreadable body is a failure.
func (w *doorLoad) admit(s *service, c *http.Client, i int, tr *tracer) opResult {
	body := fmt.Sprintf(`{"index":%d}`, i)
	t0 := time.Now()
	resp, err := c.Post(s.URL(), "application/json", strings.NewReader(body))
	if err != nil {
		return opResult{failed: true, detail: err.Error()}
	}
	var ans struct {
		Verdict   string `json:"verdict"`
		LatencyNs int64  `json:"latency_ns"`
		Error     string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&ans)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	o := opResult{ns: float64(t1.Sub(t0))}
	switch {
	case derr != nil:
		o.failed, o.detail = true, derr.Error()
	case resp.StatusCode == http.StatusOK && ans.Verdict == "admitted":
		o.accepted = true
	case resp.StatusCode == http.StatusServiceUnavailable:
	default:
		o.failed, o.detail = true, fmt.Sprintf("status %d: %s %s", resp.StatusCode, ans.Verdict, ans.Error)
	}
	if tr != nil {
		tr.door(w.tab[i].Name, t0, t1, ans.LatencyNs)
	}
	return o
}

func (w *doorLoad) Pass(traced bool) (passResult, error) {
	w.passes++
	var tr *tracer
	if traced {
		tr = w.p.tr
	}
	s := w.plain
	if traced && w.longLived {
		s = w.trcd
	}
	if !w.longLived {
		if traced || s == nil {
			var err error
			if s, err = sutStartService(w.tab, w.journal("churn"), tr); err != nil {
				return passResult{}, err
			}
		} else {
			w.plain = nil // this pass uses up the server Setup booted
		}
	}
	before := s.Counters()

	res := passResult{OpNs: make([]float64, w.ops)}
	var mu sync.Mutex // guards res counters and firstErr across connections
	var firstErr error
	var wg sync.WaitGroup
	var m meter
	m.start()
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var residents []string
			stop := func(keep int) {
				for len(residents) > keep {
					if err := s.StopApp(residents[0]); err != nil {
						mu.Lock()
						res.Failed++
						firstErr = errors.Join(firstErr, err)
						mu.Unlock()
					}
					residents = residents[1:]
				}
			}
			for i := c; i < w.ops; i += w.conns {
				o := w.admit(s, w.clients[c], i, tr)
				res.OpNs[i] = o.ns
				mu.Lock()
				if o.failed {
					res.Failed++
					firstErr = errors.Join(firstErr, errors.New(o.detail))
				} else if o.accepted {
					res.Accepted++
				}
				mu.Unlock()
				if o.accepted {
					residents = append(residents, w.tab[i].Name)
					stop(w.residency / w.conns)
				}
			}
			stop(0) // final drain
		}(c)
	}
	wg.Wait()
	m.stop(&res)
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: pass %d: %v\n", w.passes, firstErr)
	}

	// The collector reads each admitted mapping's energy off the results
	// channel, which the stream server feeds after it answered the door.
	want := before.CollectedAdmits + uint64(res.Accepted)
	after := s.Counters()
	for deadline := time.Now().Add(5 * time.Second); after.CollectedAdmits < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = s.Counters()
	}
	res.Energy = after.EnergySum - before.EnergySum
	if traced {
		tr.endPass()
		if !w.longLived {
			w.base = before
		}
		w.counted, w.probe = after.since(w.base), s
	}
	if w.longLived {
		return res, nil
	}

	// Fresh-server pass: the drained platform must be pristine, the
	// stack's own ledgers must balance, and the first pass's journal must
	// replay into a bit-identical platform.
	if !s.Pristine() {
		fmt.Fprintf(os.Stderr, "bench: pass %d: platform not pristine after the final drain\n", w.passes)
		res.Failed++
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: pass %d: %v\n", w.passes, err)
		res.Failed++
	}
	if !w.replayed {
		w.replayed = true
		if _, err := s.ReplayMatches(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: pass %d: journal replay: %v\n", w.passes, err)
			res.Failed++
		}
	}
	return res, nil
}

func (w *doorLoad) Teardown() (int, error) {
	failed := 0
	for _, s := range []*service{w.plain, w.trcd} {
		if s == nil {
			continue
		}
		if !s.Pristine() {
			fmt.Fprintln(os.Stderr, "bench: platform not pristine after the final drain")
			failed++
		}
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed++
		}
	}
	w.plain, w.trcd = nil, nil
	return failed, nil
}

func (w *doorLoad) Layers(tr *tracer) {
	a, ops := w.counted, float64(w.counted.DoorRequests)
	if ops == 0 {
		return
	}
	limit := catalogueSlots // the whole catalogue, or a handful in -quick mode
	if w.p.quick {
		limit = 6
	}
	if err := w.probe.ProbeTemplates(tr, limit); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	per := func(v uint64) float64 { return float64(v) / ops }
	tr.set("manager.hit_share", per(a.TemplateHits))
	tr.set("manager.stale_share", per(a.StaleTemplates))
	tr.set("manager.repair_share", per(a.Repaired))
	tr.set("manager.fullmap_share", per(a.FullMaps))
	tr.set("manager.conflicts_per_op", per(a.Conflicts))
	tr.set("manager.retries_per_op", per(a.Retries))
	tr.set("manager.snapshots_per_op", per(a.Snapshots))
	if taken := a.Snapshots + a.SnapshotsShared; taken > 0 {
		tr.set("manager.snapshots_shared_share", float64(a.SnapshotsShared)/float64(taken))
	}
	tr.set("manager.cow_faults_per_op", per(a.CoWFaults))
	tr.set("journal.events_per_op", per(a.JournalLines))
	tr.set("journal.bytes_per_op", per(a.JournalBytes))
	tr.set("journal.write_calls_per_op", per(a.JournalWrites))
	tr.set("journal.write_us_per_op", per(a.JournalWriteNs)/1e3)
	tr.set("stream.shed_share", per(a.Shed))
	tr.set("stream.dlq_recovered_per_op", per(a.DLQRecovered))
	tr.set("stream.breaker_opens", float64(a.BreakerOpens))
	tr.set("front.retries_per_op", per(a.DoorRetries))
	tr.set("workload.gen_us_per_arrival", float64(w.genPerArr)/1e3)
}

// ---------------------------------------------------------------------

// restart reads where the door workloads write: one operation is a full
// recovery of a journal prefix — verify the hash chain, replay the
// events into a fresh platform, compare with the platform as it was.
type restart struct {
	p         params
	arrivals  int
	fx        *restartFixture
	genPerArr time.Duration
	verify    time.Duration
	replay    time.Duration
	events    int
}

// restartResidency keeps the history cheap to write: with fewer
// residents than regions an arrival finds its region free and its
// template fits, so set-up is 48 full maps plus template hits. The
// journal it leaves has the same events as any other churn: one admit
// and one depart per arrival.
const restartResidency = 12

func (w *restart) Setup() error {
	t0 := time.Now()
	tab := sutArrivals(catalogueIndices(w.p.seed, w.arrivals, 1, w.p.span()))
	w.genPerArr = time.Since(t0) / time.Duration(w.arrivals)
	n := w.arrivals
	var err error
	w.fx, err = sutBuildRestart(tab, restartResidency, []int{n / 8, n / 4, n / 2, n}, w.p.dir)
	return err
}

func (w *restart) Pass(traced bool) (passResult, error) {
	res := passResult{OpNs: make([]float64, len(w.fx.Prefixes))}
	var m meter
	m.start()
	for i := range w.fx.Prefixes {
		t0 := time.Now()
		rec, err := w.fx.Recover(i)
		t1 := time.Now()
		res.OpNs[i] = float64(t1.Sub(t0))
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: restart prefix %d: %v\n", i, err)
			res.Failed++
		case !rec.Identical:
			fmt.Fprintf(os.Stderr, "bench: restart prefix %d: replayed platform differs\n", i)
			res.Failed++
		default:
			res.Accepted++
		}
		if traced && err == nil {
			w.p.tr.direct("restart.recover", fmt.Sprintf("prefix-%d", w.fx.Prefixes[i].Arrivals), t0, t1,
				child("journal.verify", rec.Verify), child("manager.replay", rec.Replay), child("arch.compare", rec.Compare))
			w.verify += rec.Verify
			w.replay += rec.Replay
			w.events += rec.Events
		}
	}
	m.stop(&res)
	// The paper's objective still has to show: the mean energy of the
	// mappings whose admissions the journal records.
	res.Energy = w.fx.Energy / float64(w.fx.Accepted) * float64(res.Accepted)
	if traced {
		w.p.tr.endPass()
	}
	return res, nil
}

func (w *restart) Teardown() (int, error) { return 0, nil }

func (w *restart) Layers(tr *tracer) {
	if w.events > 0 {
		tr.set("journal.verify_us_per_event", float64(w.verify)/1e3/float64(w.events))
		tr.set("journal.replay_us_per_event", float64(w.replay)/1e3/float64(w.events))
	}
	tr.set("workload.gen_us_per_arrival", float64(w.genPerArr)/1e3)
}
