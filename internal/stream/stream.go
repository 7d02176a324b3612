// Package stream is the long-lived admission front-end: it composes a
// manager pipeline into context-aware channel stages so the run-time
// spatial mapper can serve sustained million-arrival traffic instead of
// a test driver's bounded batch.
//
// The stage chain, in arrival order:
//
//	Submit → ingress (bounded, blocking = backpressure)
//	       → classify
//	       → per-QoS-class dropping buffers (BestEffort smallest, shed
//	         first; Standard next; Critical sends block — its contract
//	         is backpressure, never silent loss)
//	       → dispatcher (highest class first; circuit breaker sheds
//	         Standard/BestEffort while open; Critical submits blocking,
//	         the rest via TrySubmit so a saturated queue sheds instead
//	         of stalling the stage)
//	       → per-arrival watcher → Results
//
// Capacity rejections (manager.IsRetryableRejection) park in a bounded
// dead-letter queue and are re-enqueued once measured utilization drops
// below a threshold; recovered admissions and expired entries are
// accounted in the backend's manager.Stats. A rolling window reports
// live p50/p99 admission latency and admissions/sec.
//
// Every arrival accepted by Submit produces exactly one Result:
// admitted (possibly via DLQ recovery), rejected, shed, or expired.
// Report.LedgerOK checks that identity; the graceful Shutdown drains
// every stage so it holds even across the shutdown edge.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtsm/internal/manager"
	"rtsm/internal/model"
)

// Arrival is one admission request flowing through the server.
type Arrival struct {
	App *model.Application
	Lib *model.Library
	// t is the Submit timestamp, the start of the latency measurement.
	t time.Time
	// deadline, when set, is the request's drop-dead time: a Standard or
	// BestEffort arrival still queued past it is shed (ShedAtDeadline)
	// instead of burning a mapping round nobody is waiting for. Critical
	// arrivals are never deadline-shed — their contract is backpressure,
	// and the deadline only bounds how long a SubmitWait caller waits.
	deadline time.Time
	// notify, when set, receives a copy of the arrival's single Result
	// (capacity 1, so the delivery never blocks the stages).
	notify chan Result
}

// Verdict is how an arrival's passage through the server ended.
type Verdict uint8

// The four terminal verdicts. Every accepted Submit gets exactly one.
const (
	// VerdictAdmitted: the backend admitted the application (directly or
	// via a DLQ retry — see Result.Recovered).
	VerdictAdmitted Verdict = iota
	// VerdictRejected: the backend rejected it for good (structural, or
	// capacity with no DLQ configured / retry budget spent... final).
	VerdictRejected
	// VerdictShed: dropped before mapping — full class buffer, open
	// circuit breaker, or saturated backend queue.
	VerdictShed
	// VerdictExpired: parked in the DLQ but never recovered (queue full,
	// retry budget spent on capacity rejections, or server shutdown).
	VerdictExpired
)

// String names the verdict for reports.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmitted:
		return "admitted"
	case VerdictRejected:
		return "rejected"
	case VerdictShed:
		return "shed"
	default:
		return "expired"
	}
}

// Result is the single terminal outcome of one accepted arrival.
type Result struct {
	App     string
	Class   model.Priority
	Verdict Verdict
	// Recovered marks an admission that went through the dead-letter
	// queue (counted inside Admitted, never in addition to it).
	Recovered bool
	// Latency is Submit → verdict, including any DLQ parking time.
	Latency time.Duration
	// ShedAt names the stage that dropped a shed arrival; ShedAtNone
	// for every other verdict.
	ShedAt ShedStage
	// Outcome is the backend's report for admitted/rejected verdicts;
	// zero-valued for sheds and expiries, which never reached a mapper.
	Outcome manager.Outcome
}

// ShedStage attributes a shed to the stage that dropped the arrival.
type ShedStage int

const (
	// ShedAtNone marks a non-shed result.
	ShedAtNone ShedStage = iota
	// ShedAtBuffer: the arrival's class buffer was full at classify.
	ShedAtBuffer
	// ShedAtBreaker: the circuit breaker was open at dispatch.
	ShedAtBreaker
	// ShedAtQueue: the backend queue refused the non-blocking submit.
	ShedAtQueue
	// ShedAtDeadline: the arrival's request deadline passed while it was
	// still queued in a server stage.
	ShedAtDeadline
)

// String names the shedding stage for reports.
func (s ShedStage) String() string {
	switch s {
	case ShedAtBuffer:
		return "buffer"
	case ShedAtBreaker:
		return "breaker"
	case ShedAtQueue:
		return "queue"
	case ShedAtDeadline:
		return "deadline"
	}
	return "none"
}

// Options configures a Server. Backend is required; everything else has
// serviceable defaults.
type Options struct {
	Backend Backend
	// Ingress is the ingress buffer depth (default 256). Submit blocks
	// when it is full — the outermost backpressure.
	Ingress int
	// ClassBuf is the Critical class buffer capacity; Standard gets half
	// and BestEffort a quarter (min 1 each), so saturation sheds
	// BestEffort first, then Standard (default 64).
	ClassBuf int
	// DLQ is the dead-letter queue capacity; 0 disables it (capacity
	// rejections become final).
	DLQ int
	// DLQBelow is the utilization threshold under which parked entries
	// retry (default 0.75).
	DLQBelow float64
	// DLQRetries is each entry's total backend-submission budget,
	// counting the original rejected one (default 3).
	DLQRetries int
	// DLQEvery is the retry loop's poll period (default 5ms).
	DLQEvery time.Duration
	// Breaker tunes the circuit breaker; the zero value gets defaults.
	Breaker BreakerConfig
	// Window is the rolling metrics window (default 1s).
	Window time.Duration
	// Results is the results channel buffer (default 4× Ingress).
	Results int
}

func (o Options) withDefaults() Options {
	if o.Ingress <= 0 {
		o.Ingress = 256
	}
	if o.ClassBuf <= 0 {
		o.ClassBuf = 64
	}
	if o.DLQBelow <= 0 {
		o.DLQBelow = 0.75
	}
	if o.DLQRetries <= 0 {
		o.DLQRetries = 3
	}
	if o.DLQEvery <= 0 {
		o.DLQEvery = 5 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = time.Second
	}
	if o.Results <= 0 {
		o.Results = 4 * o.Ingress
	}
	return o
}

// ErrServerClosed is returned by Submit after Shutdown began.
var ErrServerClosed = errors.New("stream: server is closed")

// Server is the streaming admission front-end. Construct with New,
// feed with Submit, consume Results continuously, and stop with
// Shutdown. Safe for concurrent Submit calls.
type Server struct {
	opts    Options
	backend Backend

	mu      sync.RWMutex // guards closed vs Submit's ingress send
	closed  bool
	ingress chan Arrival
	classes [model.NumPriorities]chan Arrival
	results chan Result

	breaker *breaker
	dlq     *dlq
	win     *metricsWindow

	stages   sync.WaitGroup // classify + dispatch
	watchers sync.WaitGroup // one per backend submission in flight
	dlqDone  chan struct{}
	quit     chan struct{}

	c counters
}

// counters are the server's ledger, all atomic (bumped from watchers,
// stages and the DLQ loop concurrently).
type counters struct {
	submitted, admitted, recovered, rejected, expired atomic.Uint64
	shedByClass                                       [model.NumPriorities]atomic.Uint64
	recoveredByClass, expiredByClass                  [model.NumPriorities]atomic.Uint64
	shedBuffer, shedBreaker, shedQueue, shedDeadline  atomic.Uint64
}

// clampClass folds any priority into the valid class range, mirroring
// the manager's own clamping so both ledgers bucket a wild value the
// same way.
func clampClass(p model.Priority) model.Priority {
	if p < 0 {
		return 0
	}
	if int(p) >= model.NumPriorities {
		return model.Priority(model.NumPriorities - 1)
	}
	return p
}

// New builds and starts a server over the given backend.
func New(opts Options) (*Server, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("stream: Options.Backend is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		backend: opts.Backend,
		ingress: make(chan Arrival, opts.Ingress),
		results: make(chan Result, opts.Results),
		breaker: newBreaker(opts.Breaker),
		win:     newMetricsWindow(opts.Window),
		quit:    make(chan struct{}),
	}
	// Class buffer sizing is the shedding order: BestEffort saturates
	// (and sheds) first, Standard second, Critical never — it blocks.
	caps := [model.NumPriorities]int{}
	caps[model.Critical] = opts.ClassBuf
	caps[model.Standard] = max(1, opts.ClassBuf/2)
	caps[model.BestEffort] = max(1, opts.ClassBuf/4)
	for c := range s.classes {
		s.classes[c] = make(chan Arrival, caps[c])
	}
	if opts.DLQ > 0 {
		s.dlq = newDLQ(opts.DLQ)
		s.dlqDone = make(chan struct{})
		go s.dlqLoop()
	}
	s.stages.Add(2)
	go s.classify()
	go s.dispatch()
	return s, nil
}

// Submit hands one arrival to the server. It blocks while the ingress
// buffer is full (backpressure toward the producer) and fails only
// after Shutdown began. Every accepted arrival yields exactly one
// Result on Results.
func (s *Server) Submit(app *model.Application, lib *model.Library) error {
	return s.SubmitCtx(context.Background(), app, lib)
}

// SubmitCtx is Submit with a context: a cancellation or deadline can
// abandon the wait for ingress space (the arrival never entered and is
// not counted), and a context deadline rides with the arrival through
// the stages — a Standard or BestEffort arrival still queued past it is
// shed rather than mapped for a caller that already gave up.
func (s *Server) SubmitCtx(ctx context.Context, app *model.Application, lib *model.Library) error {
	_, err := s.submit(ctx, app, lib, nil)
	return err
}

// SubmitWait submits one arrival and blocks until its single Result
// arrives (or ctx ends first — the arrival still runs to its verdict
// and is counted in the ledger; only the wait is abandoned). It is the
// request/response shape the network front door needs: one goroutine
// per in-flight request, no shared Results() demultiplexing.
func (s *Server) SubmitWait(ctx context.Context, app *model.Application, lib *model.Library) (Result, error) {
	notify, err := s.submit(ctx, app, lib, make(chan Result, 1))
	if err != nil {
		return Result{}, err
	}
	select {
	case r := <-notify:
		return r, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// submit places one arrival into ingress, respecting ctx while blocked.
func (s *Server) submit(ctx context.Context, app *model.Application, lib *model.Library, notify chan Result) (chan Result, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	a := Arrival{App: app, Lib: lib, t: time.Now(), notify: notify}
	if d, ok := ctx.Deadline(); ok {
		a.deadline = d
	}
	select {
	case s.ingress <- a:
		s.c.submitted.Add(1)
		return notify, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Results delivers each accepted arrival's single terminal Result. The
// consumer must keep draining it until it closes (at the end of
// Shutdown); an undrained results channel eventually blocks the whole
// chain — that is backpressure, not a bug.
func (s *Server) Results() <-chan Result { return s.results }

// Metrics is the live rolling-window view: p50/p99 admission latency
// and admissions/sec.
func (s *Server) Metrics() WindowSnapshot { return s.win.Snapshot() }

// classify drains ingress into the per-class buffers. BestEffort and
// Standard sends drop on a full buffer (the shed,
// cheapest possible: no mapping ran); Critical sends block, propagating
// backpressure to Submit through ingress. A non-Critical arrival whose
// request deadline already passed is shed before it ever costs a
// buffer slot.
func (s *Server) classify() {
	defer s.stages.Done()
	defer func() {
		for _, c := range s.classes {
			close(c)
		}
	}()
	for a := range s.ingress {
		c := clampClass(a.App.QoS.Priority)
		if c == model.Critical {
			s.classes[c] <- a
			continue
		}
		if !a.deadline.IsZero() && time.Now().After(a.deadline) {
			s.c.shedDeadline.Add(1)
			s.shed(a, c, ShedAtDeadline)
			continue
		}
		select {
		case s.classes[c] <- a:
		default:
			s.c.shedBuffer.Add(1)
			s.shed(a, c, ShedAtBuffer)
		}
	}
}

// dispatch drains the class buffers highest class first and submits to
// the backend. It exits once every class buffer is closed and drained.
func (s *Server) dispatch() {
	defer s.stages.Done()
	crit := s.classes[model.Critical]
	std := s.classes[model.Standard]
	be := s.classes[model.BestEffort]
	for crit != nil || std != nil || be != nil {
		// Strict priority: take a Critical arrival whenever one is ready
		// before even looking at the lower buffers, and a Standard one
		// before BestEffort — so under pressure the BestEffort buffer
		// drains last and sheds first. Aging inside the backend's own
		// queue keeps this starvation-free end to end.
		if crit != nil {
			select {
			case a, ok := <-crit:
				if !ok {
					crit = nil
					continue
				}
				s.handle(a, model.Critical)
				continue
			default:
			}
		}
		if std != nil {
			select {
			case a, ok := <-std:
				if !ok {
					std = nil
					continue
				}
				s.handle(a, model.Standard)
				continue
			default:
			}
		}
		select {
		case a, ok := <-crit:
			if !ok {
				crit = nil
				continue
			}
			s.handle(a, model.Critical)
		case a, ok := <-std:
			if !ok {
				std = nil
				continue
			}
			s.handle(a, model.Standard)
		case a, ok := <-be:
			if !ok {
				be = nil
				continue
			}
			s.handle(a, model.BestEffort)
		}
	}
}

// handle submits one dispatched arrival to the backend: Critical blocks
// (backpressure), the rest shed on a saturated queue or an open
// breaker.
func (s *Server) handle(a Arrival, c model.Priority) {
	if c != model.Critical && !a.deadline.IsZero() && time.Now().After(a.deadline) {
		// The request deadline expired while the arrival sat in its class
		// buffer; mapping it now would serve nobody.
		s.c.shedDeadline.Add(1)
		s.shed(a, c, ShedAtDeadline)
		return
	}
	if c != model.Critical && !s.breaker.allow() {
		s.c.shedBreaker.Add(1)
		s.shed(a, c, ShedAtBreaker)
		return
	}
	if c == model.Critical {
		wait, err := s.backend.Submit(a.App, a.Lib)
		if err != nil {
			// Backend refused outright (closed or duplicate): deliver a
			// final rejection so the arrival still gets its one outcome.
			s.deliver(a.notify, Result{
				App: a.App.Name, Class: c, Verdict: VerdictRejected,
				Latency: time.Since(a.t),
				Outcome: manager.Outcome{App: a.App.Name, Err: err, Priority: c},
			})
			return
		}
		s.watch(a, c, wait, 1)
		return
	}
	wait, ok := s.backend.TrySubmit(a.App, a.Lib)
	if !ok {
		// The backend's bounded queue is full. The arrival never produces
		// an outcome, so it hands back any half-open probe slot allow took.
		s.breaker.returnProbe()
		s.c.shedQueue.Add(1)
		s.shed(a, c, ShedAtQueue)
		return
	}
	s.watch(a, c, wait, 1)
}

// shed drops an arrival at a server stage; deliver books it in the
// server's ledger.
func (s *Server) shed(a Arrival, c model.Priority, at ShedStage) {
	s.deliver(a.notify, Result{App: a.App.Name, Class: c, Verdict: VerdictShed, Latency: time.Since(a.t), ShedAt: at})
}

// watch waits for one backend outcome on its own goroutine. attempts is
// the arrival's backend-submission count including this one. The
// watcher population is naturally bounded: TrySubmit refuses when the
// backend queue is full and Critical Submit blocks, so at most
// queue-depth + workers outcomes are ever pending.
func (s *Server) watch(a Arrival, c model.Priority, wait func() manager.Outcome, attempts int) {
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		out := wait()
		lat := time.Since(a.t)
		if out.Admitted {
			recovered := attempts > 1
			s.breaker.record(false)
			s.win.add(lat)
			s.deliver(a.notify, Result{
				App: a.App.Name, Class: c, Verdict: VerdictAdmitted,
				Recovered: recovered, Latency: lat, Outcome: out,
			})
			return
		}
		// Only a capacity rejection says the mesh is saturated. A
		// structural one (no implementation, unknown pinned tile,
		// duplicate name) is a property of the request: counting it
		// would let one client's bad specs shed everyone else's arrivals.
		retryable := manager.IsRetryableRejection(out.Err)
		if retryable {
			s.breaker.record(true)
		} else if c != model.Critical {
			s.breaker.returnProbe()
		}
		if s.dlq != nil && retryable {
			if attempts < s.opts.DLQRetries {
				if s.dlq.add(dlqEntry{arr: a, class: c, attempts: attempts}) {
					return // verdict deferred to the retry or the expiry
				}
			}
			// Budget spent or class quota full: the entry expires.
			s.deliver(a.notify, Result{
				App: a.App.Name, Class: c, Verdict: VerdictExpired,
				Latency: lat, Outcome: out,
			})
			return
		}
		s.deliver(a.notify, Result{
			App: a.App.Name, Class: c, Verdict: VerdictRejected,
			Latency: lat, Outcome: out,
		})
	}()
}

// dlqLoop periodically retries parked entries once utilization drops
// below the threshold.
func (s *Server) dlqLoop() {
	defer close(s.dlqDone)
	t := time.NewTicker(s.opts.DLQEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			if s.backend.Utilization() >= s.opts.DLQBelow {
				continue
			}
			for _, e := range s.dlq.popN(8) {
				c := e.class
				wait, ok := s.backend.TrySubmit(e.arr.App, e.arr.Lib)
				if !ok {
					// Queue refilled between the utilization read and the
					// submit; park it again without burning retry budget
					// (no mapping round ran).
					if !s.dlq.add(e) {
						s.deliver(e.arr.notify, Result{
							App: e.arr.App.Name, Class: c, Verdict: VerdictExpired,
							Latency: time.Since(e.arr.t),
						})
					}
					continue
				}
				s.watch(e.arr, c, wait, e.attempts+1)
			}
		}
	}
}

// deliver finalizes one arrival: ledger counters, the per-request
// notify channel (capacity 1, never blocks), then the results channel
// (which may block — backpressure toward the stages when the consumer
// lags).
func (s *Server) deliver(notify chan Result, r Result) {
	switch r.Verdict {
	case VerdictAdmitted:
		s.c.admitted.Add(1)
		if r.Recovered {
			s.c.recovered.Add(1)
			s.c.recoveredByClass[clampClass(r.Class)].Add(1)
		}
	case VerdictRejected:
		s.c.rejected.Add(1)
	case VerdictShed:
		s.c.shedByClass[clampClass(r.Class)].Add(1)
	case VerdictExpired:
		s.c.expired.Add(1)
		s.c.expiredByClass[clampClass(r.Class)].Add(1)
	}
	if notify != nil {
		select {
		case notify <- r:
		default: // impossible: one outcome, capacity 1 — but never block
		}
	}
	s.results <- r
}

// Shutdown drains the server gracefully: Submit starts refusing, every
// stage drains in order, in-flight outcomes are awaited, remaining DLQ
// entries expire, the results channel closes, and finally the backend
// is closed. The consumer must keep draining Results() while Shutdown
// runs. It returns the final Report; calling it twice is an error on
// the second call's part — it returns the same report without
// re-draining.
func (s *Server) Shutdown() Report {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Report()
	}
	s.closed = true
	s.mu.Unlock()

	close(s.ingress)
	s.stages.Wait() // classify drained ingress; dispatch drained classes
	// Stop the DLQ retry loop BEFORE waiting on watchers: the loop
	// spawns watcher goroutines, and a WaitGroup must not grow while
	// being waited on.
	close(s.quit)
	if s.dlq != nil {
		<-s.dlqDone
	}
	s.watchers.Wait() // every submitted outcome delivered (or parked in DLQ)
	if s.dlq != nil {
		for _, e := range s.dlq.drain() {
			s.deliver(e.arr.notify, Result{
				App:     e.arr.App.Name,
				Class:   e.class,
				Verdict: VerdictExpired,
				Latency: time.Since(e.arr.t),
			})
		}
	}
	close(s.results)
	s.backend.Close()
	return s.Report()
}

// Report is the server's lifetime ledger plus the live window.
type Report struct {
	// Submitted counts arrivals accepted by Submit. The ledger identity
	// is Submitted = Admitted + Rejected + Shed + Expired — every
	// accepted arrival ends in exactly one bucket (Recovered is the
	// DLQ-recovered subset of Admitted, not a fifth bucket).
	Submitted uint64
	Admitted  uint64
	Recovered uint64
	Rejected  uint64
	Expired   uint64
	// ShedByClass splits the sheds per QoS class; Shed() sums them.
	ShedByClass [model.NumPriorities]uint64
	// RecoveredByClass and ExpiredByClass split the DLQ outcomes per QoS
	// class, so a per-class budget squeeze is visible in the ledger.
	RecoveredByClass, ExpiredByClass [model.NumPriorities]uint64
	// ShedBuffer, ShedBreaker, ShedQueue and ShedDeadline attribute
	// sheds to the stage that dropped: full class buffer, open circuit
	// breaker, saturated backend queue, expired request deadline.
	ShedBuffer, ShedBreaker, ShedQueue, ShedDeadline uint64
	// BreakerOpens counts breaker trips; BreakerState names the state at
	// report time; DLQDepth is the queue's total depth at report time
	// (nonzero only mid-run) and DLQDepthByClass splits it per lane.
	BreakerOpens    uint64
	BreakerState    string
	DLQDepth        int
	DLQDepthByClass [model.NumPriorities]int
	// Window is the rolling-window snapshot of end-to-end admission
	// latency at report time.
	Window WindowSnapshot
}

// Shed sums the per-class shed counts.
func (r Report) Shed() uint64 {
	var n uint64
	for _, c := range r.ShedByClass {
		n += c
	}
	return n
}

// LedgerOK checks the exactly-one-outcome identity.
func (r Report) LedgerOK() bool {
	return r.Admitted+r.Rejected+r.Shed()+r.Expired == r.Submitted
}

// Report snapshots the ledger. Only after Shutdown is it guaranteed
// stable and ledger-complete; mid-run it is a live view.
func (s *Server) Report() Report {
	r := Report{
		Submitted:    s.c.submitted.Load(),
		Admitted:     s.c.admitted.Load(),
		Recovered:    s.c.recovered.Load(),
		Rejected:     s.c.rejected.Load(),
		Expired:      s.c.expired.Load(),
		ShedBuffer:   s.c.shedBuffer.Load(),
		ShedBreaker:  s.c.shedBreaker.Load(),
		ShedQueue:    s.c.shedQueue.Load(),
		ShedDeadline: s.c.shedDeadline.Load(),
		BreakerOpens: s.breaker.Opens(),
		BreakerState: s.breaker.State().String(),
		Window:       s.win.Snapshot(),
	}
	for c := range r.ShedByClass {
		r.ShedByClass[c] = s.c.shedByClass[c].Load()
		r.RecoveredByClass[c] = s.c.recoveredByClass[c].Load()
		r.ExpiredByClass[c] = s.c.expiredByClass[c].Load()
	}
	if s.dlq != nil {
		r.DLQDepth = s.dlq.depth()
		for c := range r.DLQDepthByClass {
			r.DLQDepthByClass[c] = s.dlq.depthOf(model.Priority(c))
		}
	}
	return r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
