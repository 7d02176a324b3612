package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// fakeClock drives the metrics window tests deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWindowPercentilesAndRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(4000, 0)}
	w := newMetricsWindow(time.Second)
	w.now = clk.now
	w.bucketAt = clk.now()
	for i := 1; i <= 100; i++ {
		w.add(time.Duration(i) * time.Millisecond)
		clk.advance(time.Millisecond)
	}
	snap := w.Snapshot()
	if snap.Samples != 100 {
		t.Fatalf("samples = %d, want 100", snap.Samples)
	}
	if snap.P50 < 45*time.Millisecond || snap.P50 > 55*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", snap.P50)
	}
	if snap.P99 < 95*time.Millisecond || snap.P99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ~99ms", snap.P99)
	}
	if snap.PerSec < 90 || snap.PerSec > 110 {
		t.Fatalf("rate = %.1f/s, want ~100/s", snap.PerSec)
	}
	// Everything ages out of the window.
	clk.advance(2 * time.Second)
	snap = w.Snapshot()
	if snap.Samples != 0 || snap.PerSec != 0 {
		t.Fatalf("stale window still reports %d samples at %.1f/s", snap.Samples, snap.PerSec)
	}
}

// TestRingsKeepTheirSpanAtLowRates pins the metrics window's bucket ring
// to its configured span when calls arrive slower than one per bucket:
// one event every 1.9 bucket spans used to rotate one bucket per call and
// restart it at the call, so the ring came to cover 1.9 windows.
func TestRingsKeepTheirSpanAtLowRates(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(5000, 0)}
		w := newMetricsWindow(time.Second) // 20 buckets of 50 ms
		w.now = clk.now
		w.bucketAt = clk.now()
		for i := 0; i < 60; i++ {
			w.add(time.Millisecond)
			clk.advance(95 * time.Millisecond)
		}
		// True rate 10.5/s; the stretched ring read 20.
		if got := w.Snapshot().PerSec; got < 9 || got > 12 {
			t.Fatalf("rate = %.1f/s at one admission per 95 ms, want ~10.5/s", got)
		}
	})
}

func TestDLQPerClassBudgetsAndOrder(t *testing.T) {
	// Capacity 8 splits into quotas Critical 8, Standard 4, BestEffort 2.
	d := newDLQ(8)
	mk := func(c model.Priority, i int) dlqEntry {
		app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 3, MaxUtil: 0.1, PeriodNs: 40_000})
		app.Name = fmt.Sprintf("dlq-%s-%d", c, i)
		return dlqEntry{arr: arrival{App: app, Lib: lib}, class: c, attempts: 1}
	}
	// BestEffort pressure fills only its own lane...
	for i := 0; i < 2; i++ {
		if !d.add(mk(model.BestEffort, i)) {
			t.Fatalf("BestEffort add %d refused below its quota", i)
		}
	}
	if d.add(mk(model.BestEffort, 2)) {
		t.Fatal("BestEffort add above its quota accepted")
	}
	// ...and never costs Critical a slot.
	for i := 0; i < 8; i++ {
		if !d.add(mk(model.Critical, i)) {
			t.Fatalf("Critical add %d refused despite BestEffort pressure", i)
		}
	}
	if d.add(mk(model.Critical, 8)) {
		t.Fatal("Critical add above its quota accepted")
	}
	if d.depth() != 10 || d.depthOf(model.BestEffort) != 2 || d.depthOf(model.Critical) != 8 {
		t.Fatalf("depths: total %d, be %d, crit %d", d.depth(), d.depthOf(model.BestEffort), d.depthOf(model.Critical))
	}
	// Retry rounds drain the highest class first, FIFO within a class.
	batch := d.popN(9)
	if len(batch) != 9 {
		t.Fatalf("popN returned %d entries, want 9", len(batch))
	}
	for i := 0; i < 8; i++ {
		if want := fmt.Sprintf("dlq-critical-%d", i); batch[i].arr.App.Name != want {
			t.Fatalf("batch[%d] = %s, want %s", i, batch[i].arr.App.Name, want)
		}
	}
	if batch[8].arr.App.Name != "dlq-best-effort-0" {
		t.Fatalf("batch[8] = %s, want the oldest BestEffort entry", batch[8].arr.App.Name)
	}
	rest := d.drain()
	if len(rest) != 1 || rest[0].arr.App.Name != "dlq-best-effort-1" {
		t.Fatalf("drain returned %+v", rest)
	}
	if d.depth() != 0 {
		t.Fatal("drain left entries behind")
	}
}

// fakeBackend scripts backend behaviour so the server's semantics are
// testable without mesh physics. Mode transitions are atomic.
type fakeBackend struct {
	// mode: 0 admit, 1 retryable rejection, 2 structural rejection,
	// 3 queue full (TrySubmit refuses).
	mode atomic.Int32
	util atomic.Uint64 // float64 bits… keep it simple: percent
	subs atomic.Uint64
	// utilReads counts Utilization calls.
	utilReads atomic.Uint64
}

const (
	fakeAdmit = iota
	fakeRejectRetryable
	fakeRejectStructural
	fakeFull
)

// behavior resolves an arrival's scripted fate: a name tag ("admit-…",
// "reject-…", "structural-…", "full-…") wins over the global mode, so
// tests that interleave behaviours stay deterministic even though
// outcomes are watched asynchronously.
func (f *fakeBackend) behavior(app *model.Application) int32 {
	switch {
	case strings.HasPrefix(app.Name, "admit-"):
		return fakeAdmit
	case strings.HasPrefix(app.Name, "reject-"):
		return fakeRejectRetryable
	case strings.HasPrefix(app.Name, "structural-"):
		return fakeRejectStructural
	case strings.HasPrefix(app.Name, "full-"):
		return fakeFull
	}
	return f.mode.Load()
}

func (f *fakeBackend) outcome(app *model.Application) manager.Outcome {
	switch f.behavior(app) {
	case fakeAdmit:
		return manager.Outcome{App: app.Name, Admitted: true, Priority: app.QoS.Priority}
	case fakeRejectRetryable:
		return manager.Outcome{App: app.Name, Priority: app.QoS.Priority,
			Err: &manager.RejectionError{App: app.Name, Reason: "mesh full", Retryable: true}}
	default:
		return manager.Outcome{App: app.Name, Priority: app.QoS.Priority,
			Err: &manager.RejectionError{App: app.Name, Reason: "no implementation", Retryable: false}}
	}
}

func (f *fakeBackend) Submit(app *model.Application, lib *model.Library) (func() manager.Outcome, error) {
	f.subs.Add(1)
	out := f.outcome(app)
	return func() manager.Outcome { return out }, nil
}

func (f *fakeBackend) TrySubmit(app *model.Application, lib *model.Library) (func() manager.Outcome, bool) {
	if f.behavior(app) == fakeFull {
		return nil, false
	}
	f.subs.Add(1)
	out := f.outcome(app)
	return func() manager.Outcome { return out }, true
}

func (f *fakeBackend) Utilization() float64 {
	f.utilReads.Add(1)
	return float64(f.util.Load()) / 100
}
func (f *fakeBackend) Stop(string) error { return nil }
func (f *fakeBackend) Close()            {}

func synthArrival(i int, prio model.Priority) (*model.Application, *model.Library) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 3, Seed: int64(i % 4),
		MaxUtil: 0.1, PeriodNs: 40_000, Priority: prio,
	})
	app.Name = fmt.Sprintf("fake-%d-%d", prio, i)
	return app, lib
}

// taggedArrival names the app so fakeBackend.behavior scripts its fate
// deterministically regardless of outcome timing.
func taggedArrival(tag string, i int, prio model.Priority) (*model.Application, *model.Library) {
	app, lib := synthArrival(i, prio)
	app.Name = fmt.Sprintf("%s-%d-%d", tag, prio, i)
	return app, lib
}

// collect drains a server's results into a slice until the channel
// closes.
func collect(srv *Server) (<-chan []Result, func()) {
	out := make(chan []Result, 1)
	go func() {
		var all []Result
		for r := range srv.Results() {
			all = append(all, r)
		}
		out <- all
	}()
	return out, func() {}
}

// TestServerExactlyOneOutcome pins the ledger identity on the fake
// backend across every verdict path, including duplicate result
// detection per app. A Standard or BestEffort arrival the backend queue
// refuses sheds there (or at its share, if that filled first); a
// Critical one waits in the blocking Submit and is never shed.
func TestServerExactlyOneOutcome(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{Backend: fb, ClassBuf: 16})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n = 300
	// Name tags script each arrival's fate so every verdict path is
	// exercised deterministically; priority cycles independently of the
	// tag so each behaviour hits every class.
	tags := []string{"admit", "structural", "full"}
	for i := 0; i < n; i++ {
		app, lib := taggedArrival(tags[i%3], i, model.Priority((i/3)%model.NumPriorities))
		if err := srv.Submit(app, lib); err != nil {
			t.Fatal(err)
		}
	}
	rep := srv.Shutdown()
	all := <-done
	if !rep.LedgerOK() {
		t.Fatalf("ledger broken: %+v", rep)
	}
	if rep.Submitted != n {
		t.Fatalf("submitted = %d, want %d", rep.Submitted, n)
	}
	if uint64(len(all)) != rep.Submitted {
		t.Fatalf("results delivered %d, want %d", len(all), rep.Submitted)
	}
	seen := make(map[string]int)
	for _, r := range all {
		seen[r.App]++
		full := strings.HasPrefix(r.App, "full-")
		switch {
		case r.Class == model.Critical && r.Verdict == VerdictShed:
			t.Fatalf("Critical arrival %s shed at %s", r.App, r.ShedAt)
		case r.Class != model.Critical && full && r.ShedAt != ShedAtQueue && r.ShedAt != ShedAtShare:
			t.Fatalf("refused arrival %s: %s at %s, want shed at the queue or the share", r.App, r.Verdict, r.ShedAt)
		case !full && r.ShedAt == ShedAtQueue:
			t.Fatalf("arrival %s shed at the queue, which never refused it", r.App)
		}
	}
	for app, c := range seen {
		if c != 1 {
			t.Fatalf("app %s got %d results", app, c)
		}
	}
	if rep.Admitted == 0 || rep.Rejected == 0 || rep.ShedQueue == 0 {
		t.Fatalf("expected a mix of verdicts, got %+v", rep)
	}
	if err := srv.Submit(synthArrival(n, model.BestEffort)); err == nil {
		t.Fatal("Submit after Shutdown succeeded")
	}
}

// TestServerDLQRecoversAfterLoadDrops scripts the dead-letter cycle:
// retryable rejections park, nothing retries while utilization is
// high, and once it drops the entries are re-submitted and admitted
// with Recovered set — each still yielding exactly one outcome. A
// structural rejection is final: it never parks.
func TestServerDLQRecoversAfterLoadDrops(t *testing.T) {
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	fb.util.Store(95)
	srv, err := New(Options{
		Backend: fb, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 3, DLQEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n, bad = 20, 5
	for i := 0; i < n; i++ {
		if err := srv.Submit(synthArrival(i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bad; i++ {
		if err := srv.Submit(taggedArrival("structural", n+i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every capacity rejection is parked in the DLQ and every
	// structural one is delivered.
	deadline := time.Now().Add(5 * time.Second)
	for (srv.dlq.depth() < n || srv.c.rejected.Load() < bad) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d, r := srv.dlq.depth(), srv.c.rejected.Load(); d != n || r != bad {
		t.Fatalf("DLQ parked %d of %d, rejected %d of %d", d, n, r, bad)
	}
	// Load drops and the backend heals: retries must recover.
	fb.mode.Store(fakeAdmit)
	fb.util.Store(10)
	for srv.c.recovered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep := srv.Shutdown()
	all := <-done
	if rep.Recovered != n || rep.Admitted != n || rep.Rejected != bad {
		t.Fatalf("recovered %d admitted %d rejected %d, want %d, %d and %d\n%+v",
			rep.Recovered, rep.Admitted, rep.Rejected, n, n, bad, rep)
	}
	if !rep.LedgerOK() {
		t.Fatalf("ledger broken: %+v", rep)
	}
	if uint64(len(all)) != rep.Submitted {
		t.Fatalf("results delivered %d, want %d", len(all), rep.Submitted)
	}
	for _, r := range all {
		structural := strings.HasPrefix(r.App, "structural-")
		if structural && r.Verdict != VerdictRejected || !structural && (!r.Recovered || r.Verdict != VerdictAdmitted) {
			t.Fatalf("result %+v, want a final rejection for a structural one and a recovered admission otherwise", r)
		}
	}
}

// TestServerDLQIdleSkipsUtilization: the retry loop reads the backend's
// utilization, which takes the platform's lock on a real mesh, only while
// something is parked. Admissions that never park leave it unread; the
// first parked entry starts the reads.
func TestServerDLQIdleSkipsUtilization(t *testing.T) {
	fb := &fakeBackend{}
	fb.util.Store(95)
	srv, err := New(Options{
		Backend: fb, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 3, DLQEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	for i := 0; i < 20; i++ {
		if err := srv.Submit(taggedArrival("admit", i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.c.admitted.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// No event marks a tick that correctly did nothing; give the loop
	// about twenty of them to read utilization wrongly.
	time.Sleep(20 * time.Millisecond)
	if n := fb.utilReads.Load(); n != 0 {
		t.Fatalf("empty DLQ read utilization %d times", n)
	}
	if err := srv.Submit(taggedArrival("reject", 20, model.Standard)); err != nil {
		t.Fatal(err)
	}
	for fb.utilReads.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fb.utilReads.Load() == 0 {
		t.Fatal("a parked entry never read utilization")
	}
	srv.Shutdown()
	<-done
}

// TestServerDLQExpiresOnShutdownAndBudget pins the two expiry paths:
// entries still parked at Shutdown expire with one outcome each, and an
// entry whose retries keep capacity-failing expires once its budget is
// spent.
func TestServerDLQExpiresOnShutdownAndBudget(t *testing.T) {
	// Path 1: parked at shutdown.
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	fb.util.Store(95) // never retries
	srv, err := New(Options{Backend: fb, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 5, DLQEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n = 10
	for i := 0; i < n; i++ {
		if err := srv.Submit(synthArrival(i, model.BestEffort)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.dlq.depth() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep := srv.Shutdown()
	all := <-done
	if rep.Expired != n {
		t.Fatalf("expired = %d, want %d: %+v", rep.Expired, n, rep)
	}
	if !rep.LedgerOK() || uint64(len(all)) != rep.Submitted {
		t.Fatalf("ledger broken: %+v (%d results)", rep, len(all))
	}

	// Path 2: retry budget spent while load stays low but the mesh keeps
	// capacity-rejecting.
	fb2 := &fakeBackend{}
	fb2.mode.Store(fakeRejectRetryable)
	fb2.util.Store(10) // retries run immediately — and keep failing
	srv2, err := New(Options{Backend: fb2, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 2, DLQEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done2, _ := collect(srv2)
	if err := srv2.Submit(synthArrival(0, model.Standard)); err != nil {
		t.Fatal(err)
	}
	for srv2.c.expired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep2 := srv2.Shutdown()
	all2 := <-done2
	if rep2.Expired != 1 || len(all2) != 1 || all2[0].Verdict != VerdictExpired {
		t.Fatalf("budget expiry: %+v / %+v", rep2, all2)
	}
	if !rep2.LedgerOK() {
		t.Fatalf("ledger broken: %+v", rep2)
	}
}

// TestServerRejectionsShedNothing: rejections never make the server shed
// arrivals the backend could serve. Twenty structural and thirty
// capacity rejections with no DLQ are final verdicts; once the backend
// admits again, the next ten BestEffort arrivals are all admitted.
func TestServerRejectionsShedNothing(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	// SubmitWait one arrival at a time, so no class share ever binds.
	send := func(i int, c model.Priority) Result {
		app, lib := synthArrival(i, c)
		r, err := srv.SubmitWait(context.Background(), app, lib)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	i := 0
	for _, phase := range []struct {
		mode  int32
		n     int
		class model.Priority
		want  Verdict
	}{
		{fakeRejectStructural, 20, model.Standard, VerdictRejected},
		{fakeRejectRetryable, 30, model.Standard, VerdictRejected},
		{fakeAdmit, 10, model.BestEffort, VerdictAdmitted},
	} {
		fb.mode.Store(phase.mode)
		for j := 0; j < phase.n; j++ {
			if r := send(i, phase.class); r.Verdict != phase.want {
				t.Fatalf("arrival %d: %s at %s, want %s", i, r.Verdict, r.ShedAt, phase.want)
			}
			i++
		}
	}
	rep := srv.Shutdown()
	<-done
	if rep.Admitted != 10 || rep.Rejected != 50 || rep.ShedByClass != [model.NumPriorities]uint64{} || !rep.LedgerOK() {
		t.Fatalf("admitted %d, rejected %d, shed %v; want 10, 50 and none: %+v",
			rep.Admitted, rep.Rejected, rep.ShedByClass, rep)
	}
}

// TestServerBreakerHalfOpenSurvivesQueueSheds pins that sheds leave no
// shedding state behind (the name is from when a circuit breaker could
// be left half-open): capacity rejections and more queue sheds than the
// Standard share holds, then every following Standard arrival is
// admitted. A queue-refused arrival never reaches the backend, so it
// must hand its class share back when it is shed.
func TestServerBreakerHalfOpenSurvivesQueueSheds(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{Backend: fb, ClassBuf: 8}) // Standard share 4
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	// SubmitWait returns after the arrival's outcome is booked, so every
	// step below sees the share the previous arrival left.
	send := func(tag string, i int) Result {
		app, lib := taggedArrival(tag, i, model.Standard)
		r, err := srv.SubmitWait(context.Background(), app, lib)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i := 0; i < 4; i++ {
		if r := send("reject", i); r.Verdict != VerdictRejected {
			t.Fatalf("capacity rejection %d: %s at %s, want rejected", i, r.Verdict, r.ShedAt)
		}
	}
	for i := 0; i < 6; i++ {
		if r := send("full", 4+i); r.ShedAt != ShedAtQueue {
			t.Fatalf("full-queue arrival %d: %+v, want shed at the queue", i, r)
		}
	}
	for i := 0; i < 10; i++ {
		if r := send("admit", 10+i); r.Verdict != VerdictAdmitted {
			t.Fatalf("arrival %d after the queue sheds: %s at %s, want admitted", i, r.Verdict, r.ShedAt)
		}
	}
	rep := srv.Shutdown()
	<-done
	if rep.Admitted != 10 || rep.Rejected != 4 || rep.ShedQueue != 6 || rep.ShedShare != 0 || !rep.LedgerOK() {
		t.Fatalf("admitted %d, rejected %d, shed %d at the queue and %d at the share; want 10, 4, 6 and 0: %+v",
			rep.Admitted, rep.Rejected, rep.ShedQueue, rep.ShedShare, rep)
	}
}

// TestServerBreakerShedsNonCritical scripts sustained rejection and then
// a full backend queue (the name is from when a circuit breaker did the
// shedding): Standard and BestEffort arrivals shed at submit, while a
// Critical one still reaches the backend and is never shed.
func TestServerBreakerShedsNonCritical(t *testing.T) {
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	srv, err := New(Options{Backend: fb, ClassBuf: 8})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	for i := 0; i < 20; i++ {
		if err := srv.Submit(synthArrival(i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	subsBefore := fb.subs.Load()
	// With the queue refusing, non-critical arrivals shed at submit and
	// Critical waits in the blocking Submit.
	fb.mode.Store(fakeFull)
	for j := 0; j < 10; j++ {
		if err := srv.Submit(synthArrival(1000+j, model.BestEffort)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Submit(synthArrival(2000, model.Critical)); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	all := <-done
	if rep.ShedByClass[model.BestEffort] != 10 || rep.ShedQueue == 0 {
		t.Fatalf("BestEffort shed %d, %d at the queue; want 10 and some at the queue: %+v",
			rep.ShedByClass[model.BestEffort], rep.ShedQueue, rep)
	}
	if fb.subs.Load() != subsBefore+1 {
		t.Fatalf("backend submissions %d after the queue filled, want only the Critical arrival", fb.subs.Load()-subsBefore)
	}
	if !rep.LedgerOK() || uint64(len(all)) != rep.Submitted {
		t.Fatalf("ledger broken: %+v (%d results)", rep, len(all))
	}
	crit := 0
	for _, r := range all {
		if r.Class == model.Critical {
			crit++
			if r.Verdict == VerdictShed {
				t.Fatal("Critical arrival was shed")
			}
		}
	}
	if crit != 1 {
		t.Fatalf("critical results = %d, want 1", crit)
	}
}

// queueBackend is a backend with a bounded queue and one worker that
// admits each queued arrival after delay, once hold (if set) is closed:
// Submit blocks while the queue is full and TrySubmit refuses.
type queueBackend struct {
	q     chan queuedArrival
	calls atomic.Int64 // Submit and TrySubmit calls
}

type queuedArrival struct {
	app *model.Application
	out chan manager.Outcome
}

func newQueueBackend(slots int, delay time.Duration, hold <-chan struct{}) *queueBackend {
	b := &queueBackend{q: make(chan queuedArrival, slots)}
	go func() {
		if hold != nil {
			<-hold
		}
		for j := range b.q {
			time.Sleep(delay)
			j.out <- manager.Outcome{App: j.app.Name, Admitted: true, Priority: j.app.QoS.Priority}
		}
	}()
	return b
}

func (b *queueBackend) Submit(app *model.Application, _ *model.Library) (func() manager.Outcome, error) {
	b.calls.Add(1)
	j := queuedArrival{app: app, out: make(chan manager.Outcome, 1)}
	b.q <- j
	return func() manager.Outcome { return <-j.out }, nil
}

func (b *queueBackend) TrySubmit(app *model.Application, _ *model.Library) (func() manager.Outcome, bool) {
	b.calls.Add(1)
	j := queuedArrival{app: app, out: make(chan manager.Outcome, 1)}
	select {
	case b.q <- j:
		return func() manager.Outcome { return <-j.out }, true
	default:
		return nil, false
	}
}

func (b *queueBackend) Utilization() float64 { return 0 }
func (b *queueBackend) Stop(string) error    { return nil }
func (b *queueBackend) Close()               { close(b.q) }

// TestBestEffortNeverBlocksUnderCriticalStream pins that a sustained
// Critical stream cannot leave a BestEffort arrival without an outcome:
// four producers keep a two-slot backend queue full, and one BestEffort
// SubmitWait returns well inside its one-second context, shed at the
// full queue. It is shed, not served: the stream keeps every slot taken.
func TestBestEffortNeverBlocksUnderCriticalStream(t *testing.T) {
	qb := newQueueBackend(2, 2*time.Millisecond, nil)
	srv, err := New(Options{Backend: qb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	stop := make(chan struct{})
	var producers sync.WaitGroup
	for g := 0; g < 4; g++ {
		producers.Add(1)
		go func(g int) {
			defer producers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if srv.Submit(synthArrival(1000*(g+1)+i, model.Critical)) != nil {
					return
				}
			}
		}(g)
	}
	for deadline := time.Now().Add(5 * time.Second); len(qb.q) < cap(qb.q); {
		if time.Now().After(deadline) {
			t.Fatal("the Critical stream never filled the backend queue")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	app, lib := synthArrival(0, model.BestEffort)
	r, err := srv.SubmitWait(ctx, app, lib)
	close(stop)
	producers.Wait()
	rep := srv.Shutdown()
	<-done
	if err != nil {
		t.Fatalf("BestEffort arrival got no outcome under a Critical stream: %v", err)
	}
	if r.Verdict != VerdictShed || r.ShedAt != ShedAtQueue {
		t.Fatalf("BestEffort result %+v, want shed at the queue", r)
	}
	if rep.ShedByClass[model.Critical] != 0 || !rep.LedgerOK() {
		t.Fatalf("Critical shed %d, ledger ok %v: %+v", rep.ShedByClass[model.Critical], rep.LedgerOK(), rep)
	}
}

// TestSecondShutdownWaitsForDrain pins Shutdown's promise of the same
// report to a second caller: while the first call still awaits outcomes
// held by the backend, a concurrent second call waits for it instead of
// returning the ledger mid-drain.
func TestSecondShutdownWaitsForDrain(t *testing.T) {
	hold := make(chan struct{})
	qb := newQueueBackend(4, 0, hold)
	srv, err := New(Options{Backend: qb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	for i := 0; i < 4; i++ {
		if err := srv.Submit(taggedArrival("admit", i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	reports := make(chan Report, 2)
	go func() { reports <- srv.Shutdown() }()
	for {
		srv.mu.RLock()
		closed := srv.closed
		srv.mu.RUnlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go func() { reports <- srv.Shutdown() }()
	time.Sleep(20 * time.Millisecond) // room for the second call to return early
	close(hold)
	a, b := <-reports, <-reports
	<-done
	for _, r := range []Report{a, b} {
		if r.Submitted != 4 || r.Admitted != 4 || !r.LedgerOK() {
			t.Fatalf("Shutdown report: submitted %d, admitted %d, ledger ok %v; want 4, 4, true",
				r.Submitted, r.Admitted, r.LedgerOK())
		}
	}
	if a.Rejected != b.Rejected || a.Shed() != b.Shed() || a.Expired != b.Expired {
		t.Fatalf("the two Shutdown calls disagree: %+v vs %+v", a, b)
	}
}

// TestShutdownWithCriticalSubmittersBlocked pins the shutdown edge of
// the blocking path: Shutdown lands while Critical submitters wait for
// room in a full backend queue, and still completes. Each of those
// arrivals gets exactly one outcome, none of them a shed.
func TestShutdownWithCriticalSubmittersBlocked(t *testing.T) {
	qb := newQueueBackend(2, 5*time.Millisecond, nil)
	srv, err := New(Options{Backend: qb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n = 8
	results := make([]Result, n)
	errs := make([]error, n)
	var submitters sync.WaitGroup
	for i := 0; i < n; i++ {
		submitters.Add(1)
		go func(i int) {
			defer submitters.Done()
			app, lib := synthArrival(i, model.Critical)
			results[i], errs[i] = srv.SubmitWait(context.Background(), app, lib)
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); qb.calls.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d Critical arrivals reached the backend", qb.calls.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	reported := make(chan Report, 1)
	go func() { reported <- srv.Shutdown() }()
	var rep Report
	select {
	case rep = <-reported:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown stalled behind blocked Critical submitters")
	}
	submitters.Wait()
	all := <-done
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("Critical arrival %d: %v", i, errs[i])
		}
		if results[i].Verdict == VerdictShed {
			t.Fatalf("Critical arrival %d shed at %s", i, results[i].ShedAt)
		}
	}
	if rep.Submitted != n || len(all) != n || !rep.LedgerOK() {
		t.Fatalf("submitted %d, %d results, ledger ok %v; want %d, %d, true: %+v",
			rep.Submitted, len(all), rep.LedgerOK(), n, n, rep)
	}
	seen := make(map[string]int, len(all))
	for _, r := range all {
		if seen[r.App]++; seen[r.App] > 1 {
			t.Fatalf("app %s got two outcomes", r.App)
		}
	}
}

// TestSubmitWaitRefusesDoneContext: a context that is already done
// refuses the arrival before it is counted or reaches the backend.
func TestSubmitWaitRefusesDoneContext(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{Backend: fb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []model.Priority{model.Critical, model.Standard, model.BestEffort} {
		app, lib := taggedArrival("admit", 0, c)
		if _, err := srv.SubmitWait(ctx, app, lib); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s SubmitWait on a done context: err %v, want context.Canceled", c, err)
		}
	}
	rep := srv.Shutdown()
	<-done
	if rep.Submitted != 0 || fb.subs.Load() != 0 {
		t.Fatalf("refused arrivals counted: submitted %d, backend submissions %d", rep.Submitted, fb.subs.Load())
	}
}

// TestCriticalSubmitWaitHonoursDeadline: a Critical SubmitWait waits for
// room in a full backend queue only until its context ends. It then
// returns the context's error, and the arrival is neither counted nor
// left in the backend.
func TestCriticalSubmitWaitHonoursDeadline(t *testing.T) {
	hold := make(chan struct{})
	qb := newQueueBackend(2, 0, hold)
	srv, err := New(Options{Backend: qb})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	for i := 0; i < 2; i++ {
		if err := srv.Submit(synthArrival(i, model.Critical)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	app, lib := synthArrival(2, model.Critical)
	start := time.Now()
	_, err = srv.SubmitWait(ctx, app, lib)
	waited := time.Since(start)
	close(hold)
	rep := srv.Shutdown()
	all := <-done
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Critical SubmitWait on a full queue: err %v, want context.DeadlineExceeded", err)
	}
	if waited > 2*time.Second {
		t.Fatalf("Critical SubmitWait returned %v after a 50ms deadline", waited)
	}
	if rep.Submitted != 2 || rep.Admitted != 2 || len(all) != 2 || !rep.LedgerOK() {
		t.Fatalf("submitted %d, admitted %d, %d results; want 2 each: %+v", rep.Submitted, rep.Admitted, len(all), rep)
	}
}

// TestClassShareHoldsUnderConcurrentSubmitters: concurrent BestEffort
// submitters cannot overshoot their class share together. An arrival
// counts against the share before the backend sees it, so with the
// backend held exactly share arrivals reach it and every other one sheds
// at the share.
func TestClassShareHoldsUnderConcurrentSubmitters(t *testing.T) {
	hold := make(chan struct{})
	qb := newQueueBackend(64, 0, hold)
	srv, err := New(Options{Backend: qb, ClassBuf: 8}) // BestEffort share 2
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n = 64
	start := make(chan struct{})
	var submitters sync.WaitGroup
	for i := 0; i < n; i++ {
		submitters.Add(1)
		go func(i int) {
			defer submitters.Done()
			<-start
			if err := srv.Submit(synthArrival(i, model.BestEffort)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	close(start)
	submitters.Wait()
	share := srv.share[model.BestEffort]
	pending := srv.pending[model.BestEffort].Load()
	calls := qb.calls.Load()
	close(hold)
	rep := srv.Shutdown()
	<-done
	if pending != share || calls != share {
		t.Fatalf("BestEffort pending %d, backend submissions %d; want the share, %d", pending, calls, share)
	}
	if rep.ShedShare != n-uint64(share) || rep.Admitted != uint64(share) || !rep.LedgerOK() {
		t.Fatalf("shed at the share %d, admitted %d; want %d and %d: %+v", rep.ShedShare, rep.Admitted, n-share, share, rep)
	}
}

// TestClassShareCountsDLQParking: an arrival parked in the dead-letter
// queue still counts against its class share, so a class whose share is
// all parked sheds its next arrival at the share instead of adding
// mapping rounds for a saturated mesh.
func TestClassShareCountsDLQParking(t *testing.T) {
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	fb.util.Store(95)                                 // parked entries never retry
	srv, err := New(Options{Backend: fb, ClassBuf: 8, // BestEffort share 2
		DLQ: 64, DLQBelow: 0.5, DLQEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	for i := 0; i < 2; i++ {
		if err := srv.Submit(synthArrival(i, model.BestEffort)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.dlq.depth() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("DLQ parked %d of 2", srv.dlq.depth())
		}
		time.Sleep(time.Millisecond)
	}
	app, lib := synthArrival(2, model.BestEffort)
	r, err := srv.SubmitWait(context.Background(), app, lib)
	if err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-done
	if r.ShedAt != ShedAtShare {
		t.Fatalf("third BestEffort arrival: %+v, want shed at the share", r)
	}
	if rep.Expired != 2 || !rep.LedgerOK() {
		t.Fatalf("expired %d, want the 2 parked: %+v", rep.Expired, rep)
	}
	if n := srv.pending[model.BestEffort].Load(); n != 0 {
		t.Fatalf("BestEffort pending %d after Shutdown, want 0", n)
	}
}
