// Package front is the network front door: it exposes a stream.Server
// over HTTP so external producers can drive the run-time spatial mapper
// without linking against it. The door is deliberately transport-only —
// it decodes requests with a caller-supplied Decoder, propagates a
// per-request deadline into the staged pipeline via context, submits
// each request exactly once, and drains gracefully: readiness flips
// first, in-flight requests finish, and the stream ledger stays exact
// because every submission still yields exactly one outcome.
//
// The door never retries. A capacity rejection is retried in one place,
// the stream server's dead-letter queue, which re-submits only while the
// mesh has room; what the DLQ gives up on reaches the client as 503 with
// Retry-After, and the client decides whether to come back.
//
// Endpoints:
//
//	POST /admit    — submit one arrival, wait for its verdict
//	GET  /healthz  — liveness (200 while the process runs)
//	GET  /readyz   — readiness (503 once draining began)
//	GET  /metricsz — JSON: door stats + stream ledger + rolling window
package front

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/stream"
)

// Decoder turns one /admit request body into an arrival. The door owns
// transport; the caller owns the wire format (cmd/serve and
// the chaos harness both use a churn-catalogue index decoder).
type Decoder func(r *http.Request) (*model.Application, *model.Library, error)

// Options configures a Door. Server and Decode are required; everything
// else has serviceable defaults.
type Options struct {
	// Server is the admission pipeline behind the door.
	Server *stream.Server
	// Decode parses one /admit request into an arrival.
	Decode Decoder
	// Addr is the listen address (default "127.0.0.1:0" — loopback, an
	// ephemeral port, read it back from Door.Addr).
	Addr string
	// RequestTimeout is the per-request deadline applied to every /admit
	// (default 2s). It rides into the pipeline as the arrival's context
	// deadline, so a Standard or BestEffort arrival nobody is waiting
	// for anymore is shed instead of mapped.
	RequestTimeout time.Duration
	// Seed is ignored. It stays only because the benchmark still sets
	// it.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	return o
}

// What the door accepts from the network is bounded before any decoder
// or pipeline stage sees it.
const (
	// maxBodyBytes caps an /admit request body; a catalogue index or a
	// small application spec fits many times over.
	maxBodyBytes = 64 << 10
	// readHeaderTimeout is how long a connection may take to deliver one
	// request's headers before the server closes it.
	readHeaderTimeout = 2 * time.Second
)

// Stats is the door's own ledger, disjoint from the stream server's:
// it counts HTTP requests, not arrivals. A request that reaches the
// pipeline is submitted exactly once.
type Stats struct {
	// Requests counts /admit requests accepted for decoding.
	Requests uint64
	// Admitted counts /admit requests answered 200.
	Admitted uint64
	// Busy counts 503s: capacity rejections, sheds, DLQ expiries, and
	// requests refused while draining.
	Busy uint64
	// Rejected counts 422s — structural rejections no retry can fix.
	Rejected uint64
	// Timeout counts 504s — the request deadline expired first.
	Timeout uint64
	// BadRequest counts 400s from the decoder and 413s for bodies over
	// the door's size cap.
	BadRequest uint64
	// Retries is always 0: the door submits each request once. It stays
	// only because the benchmark still reads it.
	Retries uint64
	// Draining counts requests refused because readiness already
	// flipped (a subset of Busy).
	Draining uint64
}

// Door is a running HTTP listener over a stream.Server. Construct with
// Listen, stop with Drain.
type Door struct {
	opts Options
	http *http.Server
	ln   net.Listener

	ready    atomic.Bool
	draining atomic.Bool
	done     chan struct{}
	serveErr error

	requests, admitted, busy, rejected atomic.Uint64
	timeout, badRequest, draining503   atomic.Uint64
}

// Listen binds the address and starts serving. The returned Door is
// ready (readyz 200) before Listen returns.
func Listen(opts Options) (*Door, error) {
	if opts.Server == nil || opts.Decode == nil {
		return nil, fmt.Errorf("front: Options.Server and Options.Decode are required")
	}
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("front: listen %s: %w", opts.Addr, err)
	}
	d := &Door{opts: opts, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /admit", d.handleAdmit)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /metricsz", d.handleMetricsz)
	d.http = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	d.ready.Store(true)
	go func() {
		defer close(d.done)
		if err := d.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.serveErr = err
		}
	}()
	return d, nil
}

// Addr is the bound listen address, e.g. "127.0.0.1:41372".
func (d *Door) Addr() string { return d.ln.Addr().String() }

// Drain shuts the door down gracefully: readiness flips to 503 first
// (load balancers stop routing), then in-flight /admit requests run to
// their verdicts, then the listener closes. The stream server behind
// the door is NOT shut down — that is the caller's next step, in this
// order, so the pipeline still serves the door's in-flight arrivals.
// Ctx bounds the wait; a second Drain is a no-op returning nil.
func (d *Door) Drain(ctx context.Context) error {
	if !d.draining.CompareAndSwap(false, true) {
		return nil
	}
	d.ready.Store(false)
	if err := d.http.Shutdown(ctx); err != nil {
		return fmt.Errorf("front: drain: %w", err)
	}
	<-d.done
	return d.serveErr
}

// Stats snapshots the door's request ledger.
func (d *Door) Stats() Stats {
	return Stats{
		Requests:   d.requests.Load(),
		Admitted:   d.admitted.Load(),
		Busy:       d.busy.Load(),
		Rejected:   d.rejected.Load(),
		Timeout:    d.timeout.Load(),
		BadRequest: d.badRequest.Load(),
		Draining:   d.draining503.Load(),
	}
}

// AdmitResponse is the /admit response body.
type AdmitResponse struct {
	App       string `json:"app"`
	Class     string `json:"class"`
	Verdict   string `json:"verdict"`
	Recovered bool   `json:"recovered,omitempty"`
	ShedAt    string `json:"shed_at,omitempty"`
	LatencyNs int64  `json:"latency_ns"`
	Error     string `json:"error,omitempty"`
}

// Metrics is the /metricsz response body.
type Metrics struct {
	Door   Stats         `json:"door"`
	Stream stream.Report `json:"stream"`
	// LedgerOK is the stream's exactly-one-outcome identity at snapshot
	// time (mid-run it can be momentarily false while outcomes are in
	// flight; after shutdown it must hold).
	LedgerOK bool `json:"ledger_ok"`
}

func (d *Door) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (d *Door) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if d.ready.Load() {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "draining")
}

func (d *Door) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	rep := d.opts.Server.Report()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Metrics{Door: d.Stats(), Stream: rep, LedgerOK: rep.LedgerOK()})
}

func (d *Door) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if !d.ready.Load() {
		d.draining503.Add(1)
		d.busy.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, AdmitResponse{Error: "draining"})
		return
	}
	d.requests.Add(1)
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	app, lib, err := d.opts.Decode(r)
	if err != nil {
		d.badRequest.Add(1)
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, AdmitResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.opts.RequestTimeout)
	defer cancel()
	res, err := d.opts.Server.SubmitWait(ctx, app, lib)
	if err != nil {
		d.respondErr(w, err)
		return
	}
	d.respond(w, res)
}

func (d *Door) respond(w http.ResponseWriter, res stream.Result) {
	resp := AdmitResponse{
		App:       res.App,
		Class:     res.Class.String(),
		Verdict:   res.Verdict.String(),
		Recovered: res.Recovered,
		LatencyNs: int64(res.Latency),
	}
	status := http.StatusOK
	switch res.Verdict {
	case stream.VerdictAdmitted:
		d.admitted.Add(1)
	case stream.VerdictRejected:
		if res.Outcome.Err != nil {
			resp.Error = res.Outcome.Err.Error()
		}
		if manager.IsRetryableRejection(res.Outcome.Err) {
			// Capacity, and no DLQ behind the server: busy, try again later.
			d.busy.Add(1)
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		} else {
			// Structural: no amount of retrying maps an unmappable spec.
			d.rejected.Add(1)
			status = http.StatusUnprocessableEntity
		}
	case stream.VerdictShed:
		resp.ShedAt = res.ShedAt.String()
		d.busy.Add(1)
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case stream.VerdictExpired:
		if res.Outcome.Err != nil {
			resp.Error = res.Outcome.Err.Error()
		}
		d.busy.Add(1)
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

// respondErr maps SubmitWait errors: an expired request deadline is
// 504, a cancelled client 499-style 503, a closed server 503.
func (d *Door) respondErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		d.timeout.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, AdmitResponse{Error: err.Error()})
	case errors.Is(err, stream.ErrServerClosed):
		d.busy.Add(1)
		d.draining503.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, AdmitResponse{Error: err.Error()})
	default:
		d.busy.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, AdmitResponse{Error: err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
