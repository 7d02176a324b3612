// Package stream is the long-lived admission front-end: it puts a
// manager pipeline behind load shedding, a dead-letter queue and a
// ledger, so the run-time spatial mapper can serve sustained
// million-arrival traffic instead of a test harness's bounded batch.
//
// The pipeline's priority queue is the only queue an arrival waits in.
// Submit decides on the caller's goroutine whether the arrival enters
// the backend, cheapest check first, then hands it over:
//
//	Critical             → waits for backend queue room (backpressure:
//	                       never shed, never deadline-shed; a SubmitWait
//	                       caller's context bounds the wait)
//	Standard, BestEffort → shed if the request deadline passed,
//	                       if the class already has its share awaiting
//	                       outcomes (BestEffort's is the smaller, so it
//	                       sheds first), or if the backend queue is
//	                       full (TrySubmit)
//	→ per-arrival watcher → Results
//
// Capacity rejections (manager.IsRetryableRejection) park in a bounded
// dead-letter queue and are re-enqueued once measured utilization drops
// below a threshold. A parked arrival keeps counting against its class
// share, so once a saturated mesh has parked a class's share, further
// arrivals of that class shed at the share without a mapping round.
// Recovered admissions and expired entries are counted in Report. A
// rolling window reports live p50/p99 admission latency and
// admissions/sec.
//
// Every arrival accepted by Submit produces exactly one Result:
// admitted (possibly via DLQ recovery), rejected, shed, or expired.
// Report.LedgerOK checks that identity; the graceful Shutdown awaits
// every outcome so it holds even across the shutdown edge.
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

// arrival is one admission request on its way through the server.
type arrival struct {
	App *model.Application
	Lib *model.Library
	// t is the Submit timestamp, the start of the latency measurement.
	t time.Time
	// deadline, when set, is the request's drop-dead time: a Standard or
	// BestEffort arrival submitted past it is shed (ShedAtDeadline)
	// instead of burning a mapping round nobody is waiting for. Critical
	// arrivals are never deadline-shed — their contract is backpressure,
	// and the deadline only bounds how long a SubmitWait caller waits
	// for the outcome.
	deadline time.Time
	// notify, when set, receives a copy of the arrival's single Result
	// (capacity 1, so the delivery never blocks).
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
	// capacity with no DLQ configured).
	VerdictRejected
	// VerdictShed: dropped before mapping — passed deadline, class
	// share spent, or saturated backend queue.
	VerdictShed
	// VerdictExpired: parked in the DLQ but never recovered (queue full,
	// retry budget spent on capacity rejections, or server shutdown).
	VerdictExpired
)

// String names the verdict for reports.
func (v Verdict) String() string {
	return [...]string{"admitted", "rejected", "shed", "expired"}[min(v, VerdictExpired)]
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
	// ShedAt names the check that dropped a shed arrival; ShedAtNone
	// for every other verdict.
	ShedAt ShedStage
	// Outcome is the backend's report for admitted/rejected verdicts;
	// zero-valued for sheds and expiries, which never reached a mapper.
	Outcome manager.Outcome
}

// ShedStage attributes a shed to the submit check that dropped the
// arrival.
type ShedStage int

const (
	// ShedAtNone marks a non-shed result.
	ShedAtNone ShedStage = iota
	// ShedAtShare: the arrival's class already had its share
	// (Options.ClassBuf) awaiting outcomes at submit.
	ShedAtShare
	// ShedAtQueue: the backend queue refused the non-blocking submit.
	ShedAtQueue
	// ShedAtDeadline: the arrival's request deadline had passed at
	// submit.
	ShedAtDeadline
)

// String names the shedding check for reports.
func (s ShedStage) String() string {
	if s < ShedAtNone || s > ShedAtDeadline {
		return "none"
	}
	return [...]string{"none", "share", "queue", "deadline"}[s]
}

// Options configures a Server. Backend is required; everything else has
// serviceable defaults.
type Options struct {
	Backend Backend
	// Ingress and Breaker are ignored. They stay only because the
	// benchmark still sets them.
	Ingress int
	Breaker BreakerConfig
	// ClassBuf sets each class's share: at most ClassBuf/2 Standard and
	// ClassBuf/4 BestEffort arrivals (min 1 each) await their outcome at
	// once, in the backend or parked in the DLQ, and one more sheds at
	// submit (ShedAtShare), so saturation sheds BestEffort first, then
	// Standard. Critical has no share: it waits (default 64).
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
	// Window is the rolling metrics window (default 1s).
	Window time.Duration
}

// BreakerConfig is ignored; the benchmark still sets it through
// Options.Breaker.
type BreakerConfig struct {
	Window, Cooldown   time.Duration
	MinSamples, Probes int
	Ratio              float64
}

func (o Options) withDefaults() Options {
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
	return o
}

// resultsBuf is how many outcomes wait for the Results consumer before
// a delivery blocks.
const resultsBuf = 1024

// ErrServerClosed is returned by Submit after Shutdown began.
var ErrServerClosed = errors.New("stream: server is closed")

// Server is the streaming admission front-end. Construct with New,
// feed with Submit, consume Results continuously, and stop with
// Shutdown. Safe for concurrent Submit calls.
type Server struct {
	opts    Options
	backend Backend

	// mu is held for reading from a submit's closed check to its
	// hand-over, so Shutdown, once it holds it, has every accepted
	// arrival shed, delivered, watched or parked.
	mu      sync.RWMutex
	closed  bool
	drained chan struct{} // closed when the first Shutdown returns
	results chan Result

	// share caps each class's accepted arrivals awaiting an outcome
	// (Critical's is unused); pending counts them.
	share   [model.NumPriorities]int64
	pending [model.NumPriorities]atomic.Int64

	dlq *dlq
	win *metricsWindow

	watchers sync.WaitGroup // one per backend submission in flight
	dlqDone  chan struct{}
	quit     chan struct{}

	c counters
}

// counters are the server's ledger, all atomic (bumped from submitters,
// watchers and the DLQ loop concurrently).
type counters struct {
	submitted, admitted, recovered, rejected, expired atomic.Uint64
	shedByClass                                       [model.NumPriorities]atomic.Uint64
	recoveredByClass, expiredByClass                  [model.NumPriorities]atomic.Uint64
	shedAt                                            [ShedAtDeadline + 1]atomic.Uint64
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
		drained: make(chan struct{}),
		results: make(chan Result, resultsBuf),
		win:     newMetricsWindow(opts.Window),
		quit:    make(chan struct{}),
	}
	// The shares are the shedding order: BestEffort's is spent (and
	// sheds) first, Standard's second, Critical never — it waits.
	s.share[model.Standard] = int64(max(1, opts.ClassBuf/2))
	s.share[model.BestEffort] = int64(max(1, opts.ClassBuf/4))
	if opts.DLQ > 0 {
		s.dlq = newDLQ(opts.DLQ)
		s.dlqDone = make(chan struct{})
		go s.dlqLoop()
	}
	return s, nil
}

// Submit hands one arrival to the server and fails only after Shutdown
// began. A Critical arrival blocks while the backend queue is full
// (backpressure toward the producer); any other class never waits for
// queue room — it sheds. Every accepted arrival yields exactly one
// Result on Results.
func (s *Server) Submit(app *model.Application, lib *model.Library) error {
	return s.submit(context.Background(), app, lib, nil)
}

// SubmitWait submits one arrival and blocks until its single Result
// arrives (or ctx ends first — the arrival still runs to its verdict
// and is counted in the ledger; only the wait is abandoned). It is the
// request/response shape the network front door needs: one goroutine
// per in-flight request, no shared Results() demultiplexing. A ctx
// already done is refused and the arrival is not counted; a ctx
// deadline rides with the arrival, so a Standard or BestEffort arrival
// submitted past it is shed rather than mapped for a caller that gave
// up. A Critical arrival waits for queue room only until ctx ends; one
// that never got in returns ctx.Err() and is not counted.
func (s *Server) SubmitWait(ctx context.Context, app *model.Application, lib *model.Library) (Result, error) {
	notify := make(chan Result, 1)
	if err := s.submit(ctx, app, lib, notify); err != nil {
		return Result{}, err
	}
	select {
	case r := <-notify:
		return r, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// submit accepts one arrival and, under the read lock, hands it to the
// backend: Critical waits for queue room, the rest shed at the first
// check that fails, cheapest first.
func (s *Server) submit(ctx context.Context, app *model.Application, lib *model.Library, notify chan Result) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	a := arrival{App: app, Lib: lib, t: time.Now(), notify: notify}
	if d, ok := ctx.Deadline(); ok {
		a.deadline = d
	}
	c := app.QoS.Priority.Clamp()
	if c == model.Critical {
		wait, err := s.submitCritical(ctx, a)
		if err != nil && err == ctx.Err() {
			return err // never got in: not counted
		}
		s.c.submitted.Add(1)
		if err != nil {
			// Backend refused outright (closed or duplicate): the watcher
			// delivers a final rejection, the arrival's one outcome.
			wait = func() manager.Outcome { return manager.Outcome{App: app.Name, Err: err, Priority: c} }
		}
		s.watch(a, c, wait, 1)
		return nil
	}
	s.c.submitted.Add(1)
	// The arrival counts against its class share from here until
	// deliver books its outcome, DLQ parking included. Counting it
	// before the checks means concurrent submitters cannot all pass a
	// full share together.
	pending := s.pending[c].Add(1)
	switch {
	case !a.deadline.IsZero() && time.Now().After(a.deadline):
		s.shed(a, c, ShedAtDeadline)
	case pending > s.share[c]:
		s.shed(a, c, ShedAtShare)
	default:
		if wait, ok := s.backend.TrySubmit(a.App, a.Lib); ok {
			s.watch(a, c, wait, 1)
		} else {
			s.shed(a, c, ShedAtQueue)
		}
	}
	return nil
}

// submitCritical waits for room in the backend queue. A context that
// can never end waits in the blocking backend Submit; any other polls
// TrySubmit until the arrival gets in or ctx ends, since Backend has no
// cancellable Submit. It returns ctx.Err() when ctx ended first.
func (s *Server) submitCritical(ctx context.Context, a arrival) (func() manager.Outcome, error) {
	if ctx.Done() == nil {
		return s.backend.Submit(a.App, a.Lib)
	}
	for pause := 50 * time.Microsecond; ; pause = min(2*pause, 5*time.Millisecond) {
		if wait, ok := s.backend.TrySubmit(a.App, a.Lib); ok {
			return wait, nil
		}
		t := time.NewTimer(pause)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Results delivers each accepted arrival's single terminal Result. The
// consumer must keep draining it until it closes (at the end of
// Shutdown); an undrained results channel eventually blocks Submit and
// every watcher — that is backpressure, not a bug.
func (s *Server) Results() <-chan Result { return s.results }

// shed drops an arrival before it reaches the backend; deliver books
// it in the server's ledger.
func (s *Server) shed(a arrival, c model.Priority, at ShedStage) {
	s.c.shedAt[at].Add(1)
	s.deliver(a.notify, Result{App: a.App.Name, Class: c, Verdict: VerdictShed, Latency: time.Since(a.t), ShedAt: at})
}

// watch waits for one backend outcome on its own goroutine. attempts is
// the arrival's backend-submission count including this one. The
// watcher population is naturally bounded: TrySubmit refuses when the
// backend queue is full and Critical Submit blocks, so at most
// queue-depth + workers outcomes are ever pending.
func (s *Server) watch(a arrival, c model.Priority, wait func() manager.Outcome, attempts int) {
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		out := wait()
		lat := time.Since(a.t)
		if out.Admitted {
			s.win.add(lat)
			s.deliver(a.notify, Result{
				App: a.App.Name, Class: c, Verdict: VerdictAdmitted,
				Recovered: attempts > 1, Latency: lat, Outcome: out,
			})
			return
		}
		// Only a capacity rejection parks: the mesh may free up. A
		// structural one (no implementation, unknown pinned tile,
		// duplicate name) is a property of the request and final.
		if s.dlq != nil && manager.IsRetryableRejection(out.Err) {
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
// below the threshold. An empty queue skips the utilization read, which
// takes the platform's lock.
func (s *Server) dlqLoop() {
	defer close(s.dlqDone)
	t := time.NewTicker(s.opts.DLQEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			if s.dlq.depth() == 0 || s.backend.Utilization() >= s.opts.DLQBelow {
				continue
			}
			for _, e := range s.dlq.popN(8) {
				wait, ok := s.backend.TrySubmit(e.arr.App, e.arr.Lib)
				if !ok {
					// Queue refilled between the utilization read and the
					// submit; park it again without burning retry budget
					// (no mapping round ran).
					if !s.dlq.add(e) {
						s.expire(e)
					}
					continue
				}
				s.watch(e.arr, e.class, wait, e.attempts+1)
			}
		}
	}
}

// expire delivers the expiry of an entry that leaves the DLQ unrecovered.
func (s *Server) expire(e dlqEntry) {
	s.deliver(e.arr.notify, Result{App: e.arr.App.Name, Class: e.class, Verdict: VerdictExpired, Latency: time.Since(e.arr.t)})
}

// deliver finalizes one arrival: ledger counters, the per-request
// notify channel (capacity 1, never blocks), then the results channel
// (which may block — backpressure toward submitters and watchers when
// the consumer lags).
func (s *Server) deliver(notify chan Result, r Result) {
	if r.Class != model.Critical {
		s.pending[r.Class].Add(-1) // the outcome frees its share
	}
	switch r.Verdict {
	case VerdictAdmitted:
		s.c.admitted.Add(1)
		if r.Recovered {
			s.c.recovered.Add(1)
			s.c.recoveredByClass[r.Class.Clamp()].Add(1)
		}
	case VerdictRejected:
		s.c.rejected.Add(1)
	case VerdictShed:
		s.c.shedByClass[r.Class.Clamp()].Add(1)
	case VerdictExpired:
		s.c.expired.Add(1)
		s.c.expiredByClass[r.Class.Clamp()].Add(1)
	}
	if notify != nil {
		select {
		case notify <- r:
		default: // impossible: one outcome, capacity 1 — but never block
		}
	}
	s.results <- r
}

// Shutdown drains the server gracefully: Submit starts refusing,
// in-flight outcomes are awaited, remaining DLQ entries expire, the
// results channel closes, and finally the backend is closed. The
// consumer must keep draining Results() while Shutdown runs. It returns
// the final Report; a second call waits for the first to finish and
// returns the same report without re-draining.
func (s *Server) Shutdown() Report {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.drained
		return s.Report()
	}
	s.closed = true
	s.mu.Unlock()

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
			s.expire(e)
		}
	}
	close(s.results)
	s.backend.Close()
	close(s.drained)
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
	// ShedShare, ShedQueue and ShedDeadline attribute sheds to the
	// check that dropped: class share spent, saturated backend queue,
	// expired request deadline.
	ShedShare, ShedQueue, ShedDeadline uint64
	// BreakerOpens is always 0. It stays only because the benchmark
	// still reads it.
	BreakerOpens uint64
	// DLQDepth is the queue's total depth at report time (nonzero only
	// mid-run) and DLQDepthByClass splits it per lane.
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
		ShedShare:    s.c.shedAt[ShedAtShare].Load(),
		ShedQueue:    s.c.shedAt[ShedAtQueue].Load(),
		ShedDeadline: s.c.shedAt[ShedAtDeadline].Load(),
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
