package main

import (
	"strings"
	"sync"
	"time"
)

// layerMetrics lists every per-layer metric of the traced run, in the
// order BENCHMARK.json declares them: name, unit, better. A layer the
// workload does not reach reports 0.
var layerMetrics = [][3]string{
	{"csdf.buffersizes_ms", "ms", "lower"},
	{"csdf.execute_ms", "ms", "lower"},
	{"csdf.repetition_us", "us", "lower"},
	{"csdf.actors", "count", "lower"},
	{"csdf.channels", "count", "lower"},
	{"core.map_ms", "ms", "lower"},
	{"core.map_other_ms", "ms", "lower"},
	{"core.refinements", "count", "lower"},
	{"core.buildgraph_us", "us", "lower"},
	{"core.repair_ms", "ms", "lower"},
	{"core.plan_us", "us", "lower"},
	{"core.validate_us", "us", "lower"},
	{"core.commit_us", "us", "lower"},
	{"core.release_us", "us", "lower"},
	{"noc.route_us", "us", "lower"},
	{"energy.evaluate_us", "us", "lower"},
	{"arch.snapshot_us", "us", "lower"},
	{"arch.clone_cow_us", "us", "lower"},
	{"arch.residual_us", "us", "lower"},
	{"manager.fingerprint_us", "us", "lower"},
	{"manager.admit_hit_us", "us", "lower"},
	{"manager.stop_us", "us", "lower"},
	{"manager.wait_us", "us", "lower"},
	{"manager.commit_us", "us", "lower"},
	{"manager.other_us", "us", "lower"},
	{"manager.hit_share", "ratio", "higher"},
	{"manager.stale_share", "ratio", "lower"},
	{"manager.repair_share", "ratio", "lower"},
	{"manager.fullmap_share", "ratio", "lower"},
	{"manager.conflicts_per_op", "count", "lower"},
	{"manager.retries_per_op", "count", "lower"},
	{"manager.snapshots_per_op", "count", "lower"},
	{"manager.snapshots_shared_share", "ratio", "higher"},
	{"manager.cow_faults_per_op", "count", "lower"},
	{"journal.events_per_op", "count", "lower"},
	{"journal.bytes_per_op", "B", "lower"},
	{"journal.write_calls_per_op", "count", "lower"},
	{"journal.write_us_per_op", "us", "lower"},
	{"journal.verify_us_per_event", "us", "lower"},
	{"journal.replay_us_per_event", "us", "lower"},
	{"stream.self_us", "us", "lower"},
	{"stream.shed_share", "ratio", "lower"},
	{"stream.dlq_recovered_per_op", "count", "lower"},
	{"stream.breaker_opens", "count", "lower"},
	{"front.self_us", "us", "lower"},
	{"front.decode_us", "us", "lower"},
	{"front.retries_per_op", "count", "lower"},
	{"workload.gen_us_per_arrival", "us", "lower"},
	{"trace.self_cover_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// span is one recorded interval: the layer, the request it served, the
// span that caused it, and its bounds in ns since the tracer started.
type span struct {
	Name    string `json:"name"`
	Req     string `json:"req"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// reqTrace collects the spans of one request of the service path.
type reqTrace struct {
	doorStart, doorEnd         time.Time
	decStart, decEnd           time.Time
	streamNs                   time.Duration
	beStart, beEnd             time.Time
	backend                    time.Duration // summed over submissions
	wait, mapd, repair, commit time.Duration
}

// tracer keeps spans and layer timings in memory; nothing is written
// until the run ends. All recording happens in the benchmark's own
// wrappers around the program's public functions.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	sum    map[string]float64 // layer metric -> summed observations
	n      map[string]float64 // layer metric -> observation count
	reqs   map[string]*reqTrace
	spans  []span // the first traced pass only
	dumped bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]float64{}, n: map[string]float64{}, reqs: map[string]*reqTrace{}}
}

// observe adds one timing to a layer metric, scaled to the unit its
// name ends in.
func (t *tracer) observe(metric string, d time.Duration) {
	v := float64(d)
	switch {
	case strings.HasSuffix(metric, "_ms"):
		v /= 1e6
	case strings.Contains(metric, "_us"):
		v /= 1e3
	}
	t.add(metric, v)
}

// add adds one observation to a layer metric; value reports the mean.
func (t *tracer) add(metric string, v float64) {
	t.mu.Lock()
	t.sum[metric] += v
	t.n[metric]++
	t.mu.Unlock()
}

// set fixes a layer metric to a value computed elsewhere (a counter
// ratio).
func (t *tracer) set(metric string, v float64) {
	t.mu.Lock()
	t.sum[metric], t.n[metric] = v, 1
	t.mu.Unlock()
}

// value is the mean of a layer metric's observations, 0 when the layer
// was never reached.
func (t *tracer) value(metric string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[metric] == 0 {
		return 0
	}
	return t.sum[metric] / t.n[metric]
}

func (t *tracer) req(id string) *reqTrace {
	r := t.reqs[id]
	if r == nil {
		r = &reqTrace{}
		t.reqs[id] = r
	}
	return r
}

// direct records a root span of a workload that calls a layer directly
// (map-cold, restart), with optional sequential children.
func (t *tracer) direct(name, req string, start, end time.Time, children ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dumped {
		return
	}
	t.spans = append(t.spans, span{Name: name, Req: req, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))})
	at := int64(start.Sub(t.t0))
	for _, c := range children {
		c.Req, c.Parent = req, name
		c.StartNs, c.EndNs = at, at+c.EndNs
		at = c.EndNs
		t.spans = append(t.spans, c)
	}
}

// child is a helper for direct: a span known only by its duration.
func child(name string, d time.Duration) span { return span{Name: name, EndNs: int64(d)} }

func (t *tracer) decode(req string, start, end time.Time) {
	t.mu.Lock()
	r := t.req(req)
	r.decStart, r.decEnd = start, end
	t.mu.Unlock()
}

func (t *tracer) backend(req string, start, end time.Time, wait, mapd, repair, commit time.Duration) {
	t.mu.Lock()
	r := t.req(req)
	r.beStart, r.beEnd = start, end
	r.backend += end.Sub(start)
	r.wait += wait
	r.mapd += mapd
	r.repair += repair
	r.commit += commit
	t.mu.Unlock()
}

// door records the client's send-to-response span and the stream
// server's own latency for the request (AdmitResponse.LatencyNs).
func (t *tracer) door(req string, start, end time.Time, streamNs int64) {
	t.mu.Lock()
	r := t.req(req)
	r.doorStart, r.doorEnd, r.streamNs = start, end, time.Duration(streamNs)
	t.mu.Unlock()
}

// endPass folds the finished pass's request records into the layer
// metrics. Spans nest door > stream > backend > {wait, map, repair,
// commit}, with the decoder beside the stream span under the door. A
// layer's self time is its span minus its children.
func (t *tracer) endPass() {
	t.mu.Lock()
	reqs := t.reqs
	t.reqs = map[string]*reqTrace{}
	t.mu.Unlock()
	pos := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	var cover, doors float64
	for id, r := range reqs {
		if r.doorEnd.IsZero() {
			continue
		}
		door := r.doorEnd.Sub(r.doorStart)
		dec := r.decEnd.Sub(r.decStart)
		children := r.wait + r.mapd + r.repair + r.commit
		frontSelf := pos(door - r.streamNs - dec)
		streamSelf := pos(r.streamNs - r.backend)
		other := pos(r.backend - children)
		t.observe("front.self_us", frontSelf)
		t.observe("front.decode_us", dec)
		t.observe("stream.self_us", streamSelf)
		t.observe("manager.other_us", other)
		t.observe("manager.wait_us", r.wait)
		t.observe("manager.commit_us", r.commit)
		if r.mapd > 0 {
			t.observe("core.map_ms", r.mapd)
		}
		if r.repair > 0 {
			t.observe("core.repair_ms", r.repair)
		}
		cover += float64(frontSelf+dec+streamSelf+other+children) / float64(door)
		doors++
		if !t.dumped {
			t.dumpRequest(id, r)
		}
	}
	if doors > 0 {
		t.add("trace.self_cover_pct", 100*cover/doors)
	}
	t.mu.Lock()
	t.dumped = true
	t.mu.Unlock()
}

// dumpRequest appends one request's span tree to the dump. The program
// reports the stream span and the backend's children as durations only:
// the stream span is placed to end with the backend span (its clock
// stops right after the outcome arrives), or to start when the decoder
// returns if the arrival never reached the backend; the children are
// laid out in order from the backend span's start.
func (t *tracer) dumpRequest(id string, r *reqTrace) {
	ns := func(at time.Time) int64 { return int64(at.Sub(t.t0)) }
	t.mu.Lock()
	defer t.mu.Unlock()
	streamStart := ns(r.decEnd)
	if !r.beEnd.IsZero() {
		streamStart = ns(r.beEnd) - int64(r.streamNs)
	}
	t.spans = append(t.spans,
		span{Name: "front.door", Req: id, StartNs: ns(r.doorStart), EndNs: ns(r.doorEnd)},
		span{Name: "front.decode", Req: id, Parent: "front.door", StartNs: ns(r.decStart), EndNs: ns(r.decEnd)},
		span{Name: "stream", Req: id, Parent: "front.door", StartNs: streamStart, EndNs: streamStart + int64(r.streamNs)})
	if r.beEnd.IsZero() {
		return
	}
	t.spans = append(t.spans, span{Name: "backend", Req: id, Parent: "stream", StartNs: ns(r.beStart), EndNs: ns(r.beEnd)})
	at := ns(r.beStart)
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"manager.wait", r.wait}, {"core.map", r.mapd}, {"core.repair", r.repair}, {"manager.commit", r.commit}} {
		if c.d > 0 {
			t.spans = append(t.spans, span{Name: c.name, Req: id, Parent: "backend", StartNs: at, EndNs: at + int64(c.d)})
			at += int64(c.d)
		}
	}
}
