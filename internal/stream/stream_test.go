package stream

import (
	"context"
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

// fakeClock drives breaker/window tests deterministically.
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

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(BreakerConfig{
		Window: 500 * time.Millisecond, MinSamples: 10, Ratio: 0.5,
		Cooldown: 100 * time.Millisecond, Probes: 3,
	})
	b.now = clk.now
	b.bucketAt = clk.now()

	// Below MinSamples nothing trips, even at 100% failure.
	for i := 0; i < 9; i++ {
		b.record(true)
	}
	if !b.allow() {
		t.Fatal("breaker tripped below MinSamples")
	}
	b.record(true) // 10th failure: ratio 1.0 over ≥ MinSamples
	if b.allow() {
		t.Fatal("breaker stayed closed under sustained failure")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
	// Still open inside the cooldown.
	clk.advance(50 * time.Millisecond)
	if b.allow() {
		t.Fatal("breaker half-opened before the cooldown")
	}
	// Past the cooldown: half-open admits exactly Probes arrivals.
	clk.advance(60 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("probe %d refused in half-open", i)
		}
	}
	if b.allow() {
		t.Fatal("half-open admitted more than Probes arrivals")
	}
	// A probe whose outcome said nothing (a structural rejection) hands
	// its slot back, or the breaker could never collect Probes verdicts.
	b.returnProbe()
	if !b.allow() || b.allow() {
		t.Fatal("a returned probe slot must admit exactly one more arrival")
	}
	// Successful probes close it.
	for i := 0; i < 3; i++ {
		b.record(false)
	}
	if b.State() != breakerClosed {
		t.Fatal("breaker did not close after successful probes")
	}
	if !b.allow() {
		t.Fatal("closed breaker refused an arrival")
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	b := newBreaker(BreakerConfig{
		Window: 500 * time.Millisecond, MinSamples: 5, Ratio: 0.5,
		Cooldown: 100 * time.Millisecond, Probes: 3,
	})
	b.now = clk.now
	b.bucketAt = clk.now()
	for i := 0; i < 5; i++ {
		b.record(true)
	}
	clk.advance(150 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no probe after cooldown")
	}
	b.record(true) // the probe fails
	if b.State() != breakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

// TestBreakerHalfOpenProbesConcurrent pins the half-open contract under
// contention (run with -race): no matter how many goroutines race
// allow(), exactly Probes arrivals pass while half-open — no thundering
// herd onto a recovering backend — and concurrent probe outcomes settle
// the state exactly once: all-success closes it, any failure reopens it
// exactly one more time.
func TestBreakerHalfOpenProbesConcurrent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(4000, 0)}
	const probes = 5
	b := newBreaker(BreakerConfig{
		Window: 500 * time.Millisecond, MinSamples: 5, Ratio: 0.5,
		Cooldown: 100 * time.Millisecond, Probes: probes,
	})
	b.now = clk.now
	b.bucketAt = clk.now()

	trip := func() {
		for i := 0; i < 5; i++ {
			b.record(true)
		}
		if b.allow() {
			t.Fatal("breaker did not trip")
		}
		clk.advance(150 * time.Millisecond)
	}
	// hammer races many goroutines against allow() and returns how many
	// arrivals were admitted.
	hammer := func() int {
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if b.allow() {
						admitted.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return int(admitted.Load())
	}

	// Round 1: exactly Probes admitted, concurrent successes close it.
	trip()
	if got := hammer(); got != probes {
		t.Fatalf("half-open admitted %d arrivals, want exactly %d", got, probes)
	}
	var wg sync.WaitGroup
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.record(false)
		}()
	}
	wg.Wait()
	if b.State() != breakerClosed {
		t.Fatalf("breaker %s after %d concurrent successful probes, want closed", b.State(), probes)
	}
	opens := b.Opens()

	// Round 2: exactly Probes admitted again, and one failure among the
	// concurrent probe outcomes reopens it exactly once, whatever the
	// interleaving (4 successes cannot close a Probes=5 breaker).
	trip()
	opens = b.Opens() // the trip itself is one open
	if got := hammer(); got != probes {
		t.Fatalf("second half-open admitted %d arrivals, want exactly %d", got, probes)
	}
	for i := 0; i < probes; i++ {
		wg.Add(1)
		go func(fail bool) {
			defer wg.Done()
			b.record(fail)
		}(i == 0)
	}
	wg.Wait()
	if b.State() != breakerOpen {
		t.Fatalf("breaker %s after a failed probe, want open", b.State())
	}
	if b.Opens() != opens+1 {
		t.Fatalf("opens = %d after one failed probe round, want %d", b.Opens(), opens+1)
	}
	if b.allow() {
		t.Fatal("reopened breaker admitted an arrival inside the cooldown")
	}
}

func TestBreakerRatioDecaysOutOfWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3000, 0)}
	b := newBreaker(BreakerConfig{
		Window: 500 * time.Millisecond, MinSamples: 10, Ratio: 0.5,
		Cooldown: 100 * time.Millisecond, Probes: 3,
	})
	b.now = clk.now
	b.bucketAt = clk.now()
	// Nine failures, then the whole window elapses: the stale failures
	// must not combine with fresh successes into a trip.
	for i := 0; i < 9; i++ {
		b.record(true)
	}
	clk.advance(600 * time.Millisecond)
	for i := 0; i < 20; i++ {
		b.record(false)
	}
	b.record(true)
	if b.State() != breakerClosed {
		t.Fatal("stale failures outside the window tripped the breaker")
	}
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

// TestRingsKeepTheirSpanAtLowRates pins both bucket rings to their
// configured span when calls arrive slower than one per bucket: one event
// every 1.9 bucket spans used to rotate one bucket per call and restart
// it at the call, so the ring came to cover 1.9 windows.
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
	t.Run("breaker", func(t *testing.T) {
		clk := &fakeClock{t: time.Unix(6000, 0)}
		b := newBreaker(BreakerConfig{ // 10 buckets of 100 ms
			Window: time.Second, MinSamples: 8, Ratio: 1,
			Cooldown: time.Hour, Probes: 1,
		})
		b.now = clk.now
		b.bucketAt = clk.now()
		// One failure per 190 ms puts at most six in any one-second
		// window, short of MinSamples; the stretched ring held ten.
		for i := 0; i < 20; i++ {
			b.record(true)
			clk.advance(190 * time.Millisecond)
		}
		if n := b.Opens(); n != 0 {
			t.Fatalf("breaker opened %d time(s) on six failures a window, below MinSamples 8", n)
		}
	})
}

func TestDLQPerClassBudgetsAndOrder(t *testing.T) {
	// Capacity 8 splits into quotas Critical 8, Standard 4, BestEffort 2.
	d := newDLQ(8)
	mk := func(c model.Priority, i int) dlqEntry {
		app, lib := workload.Synthetic(workload.SynthOptions{Shape: workload.ShapeChain, Processes: 3, MaxUtil: 0.1, PeriodNs: 40_000})
		app.Name = fmt.Sprintf("dlq-%s-%d", c, i)
		return dlqEntry{arr: Arrival{App: app, Lib: lib}, class: c, attempts: 1}
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

// fakeBackend scripts backend behaviour so server-stage semantics are
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
// dispatch is asynchronous.
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
// deterministically regardless of dispatch timing.
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
// detection per app.
func TestServerExactlyOneOutcome(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{Backend: fb, Ingress: 16, ClassBuf: 16,
		// A breaker would (correctly) trip on the scripted rejection
		// storm and shed everything; this test wants every verdict path
		// live, so it is effectively disabled.
		Breaker: BreakerConfig{MinSamples: 1 << 30}})
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
	}
	for app, c := range seen {
		if c != 1 {
			t.Fatalf("app %s got %d results", app, c)
		}
	}
	if rep.Admitted == 0 || rep.Rejected == 0 || rep.Shed() == 0 {
		t.Fatalf("expected a mix of verdicts, got %+v", rep)
	}
	if err := srv.Submit(synthArrival(n, model.BestEffort)); err == nil {
		t.Fatal("Submit after Shutdown succeeded")
	}
}

// TestServerDLQRecoversAfterLoadDrops scripts the dead-letter cycle:
// retryable rejections park, nothing retries while utilization is
// high, and once it drops the entries are re-submitted and admitted
// with Recovered set — each still yielding exactly one outcome.
func TestServerDLQRecoversAfterLoadDrops(t *testing.T) {
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	fb.util.Store(95)
	srv, err := New(Options{
		Backend: fb, Ingress: 16, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 3, DLQEvery: time.Millisecond,
		Breaker: BreakerConfig{MinSamples: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const n = 20
	for i := 0; i < n; i++ {
		if err := srv.Submit(synthArrival(i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until every arrival is parked in the DLQ.
	deadline := time.Now().Add(5 * time.Second)
	for srv.dlq.depth() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := srv.dlq.depth(); d != n {
		t.Fatalf("DLQ parked %d of %d", d, n)
	}
	// Load drops and the backend heals: retries must recover.
	fb.mode.Store(fakeAdmit)
	fb.util.Store(10)
	for srv.c.recovered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep := srv.Shutdown()
	all := <-done
	if rep.Recovered != n || rep.Admitted != n {
		t.Fatalf("recovered %d admitted %d, want %d each\n%+v", rep.Recovered, rep.Admitted, n, rep)
	}
	if !rep.LedgerOK() {
		t.Fatalf("ledger broken: %+v", rep)
	}
	if uint64(len(all)) != rep.Submitted {
		t.Fatalf("results delivered %d, want %d", len(all), rep.Submitted)
	}
	for _, r := range all {
		if !r.Recovered || r.Verdict != VerdictAdmitted {
			t.Fatalf("result %+v, want recovered admission", r)
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
		Backend: fb, Ingress: 16, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 3, DLQEvery: time.Millisecond,
		Breaker: BreakerConfig{MinSamples: 1 << 30},
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
	srv, err := New(Options{Backend: fb, Ingress: 8, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 5, DLQEvery: time.Millisecond,
		Breaker: BreakerConfig{MinSamples: 1 << 30}})
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
	srv2, err := New(Options{Backend: fb2, Ingress: 8, ClassBuf: 256,
		DLQ: 64, DLQBelow: 0.5, DLQRetries: 2, DLQEvery: time.Millisecond,
		Breaker: BreakerConfig{MinSamples: 1 << 30}})
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

// TestServerBreakerIgnoresStructuralRejections pins that unmappable
// requests say nothing about saturation: forty structural rejections
// inside one breaker window — twice MinSamples, at a failure ratio of
// one had they counted — leave the breaker closed, and the next
// BestEffort arrival is admitted, not shed.
func TestServerBreakerIgnoresStructuralRejections(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{
		Backend: fb, Ingress: 64, ClassBuf: 128, // Standard's buffer holds all forty
		Breaker: BreakerConfig{Window: time.Minute, MinSamples: 20, Ratio: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	const bad = 40
	for i := 0; i < bad; i++ {
		if err := srv.Submit(taggedArrival("structural", i, model.Standard)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Report().Rejected < bad; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d structural rejections delivered", srv.Report().Rejected, bad)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Submit(taggedArrival("admit", bad, model.BestEffort)); err != nil {
		t.Fatal(err)
	}
	rep := srv.Shutdown()
	<-done
	if rep.BreakerOpens != 0 || rep.ShedBreaker != 0 {
		t.Fatalf("structural rejections opened the breaker: %d opens, %d shed at it", rep.BreakerOpens, rep.ShedBreaker)
	}
	if rep.Admitted != 1 || rep.Rejected != bad || !rep.LedgerOK() {
		t.Fatalf("admitted %d, rejected %d, want 1 and %d: %+v", rep.Admitted, rep.Rejected, bad, rep)
	}
}

// TestServerBreakerHalfOpenSurvivesQueueSheds pins that an arrival the
// backend queue refuses hands back the half-open probe slot it took: it
// never produces an outcome, so a kept slot could never be settled, and
// after Probes such sheds the breaker would stay half-open and shed every
// Standard and BestEffort arrival until a Critical outcome closed it.
func TestServerBreakerHalfOpenSurvivesQueueSheds(t *testing.T) {
	fb := &fakeBackend{}
	srv, err := New(Options{
		Backend: fb, Ingress: 8, ClassBuf: 8,
		Breaker: BreakerConfig{Window: time.Minute, MinSamples: 4, Ratio: 0.5,
			Cooldown: 20 * time.Millisecond, Probes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	// SubmitWait returns after the watcher fed the breaker, so every step
	// below sees the breaker state the previous arrival left.
	send := func(tag string, i int) Result {
		app, lib := taggedArrival(tag, i, model.Standard)
		r, err := srv.SubmitWait(context.Background(), app, lib)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i := 0; i < 4; i++ {
		send("reject", i)
	}
	if srv.breaker.Opens() != 1 {
		t.Fatalf("breaker opens = %d after four capacity rejections, want 1", srv.breaker.Opens())
	}
	time.Sleep(40 * time.Millisecond) // past the cooldown: half-open
	for i := 0; i < 2; i++ {
		if r := send("full", 4+i); r.ShedAt != ShedAtQueue {
			t.Fatalf("full-queue arrival %d: %+v, want shed at the queue", i, r)
		}
	}
	for i := 0; i < 10; i++ {
		if r := send("admit", 6+i); r.Verdict != VerdictAdmitted {
			t.Fatalf("arrival %d after the queue sheds: %s at %s (breaker %s), want admitted",
				i, r.Verdict, r.ShedAt, srv.breaker.State())
		}
	}
	rep := srv.Shutdown()
	<-done
	if rep.BreakerState != "closed" || rep.Admitted != 10 || !rep.LedgerOK() {
		t.Fatalf("breaker %s, admitted %d, want closed and 10: %+v", rep.BreakerState, rep.Admitted, rep)
	}
}

// TestServerBreakerShedsNonCritical scripts sustained rejection until
// the breaker opens, then checks Standard/BestEffort shed at dispatch
// while Critical still reaches the backend.
func TestServerBreakerShedsNonCritical(t *testing.T) {
	fb := &fakeBackend{}
	fb.mode.Store(fakeRejectRetryable)
	srv, err := New(Options{
		Backend: fb, Ingress: 8, ClassBuf: 8,
		Breaker: BreakerConfig{Window: time.Second, MinSamples: 10, Ratio: 0.5,
			Cooldown: time.Hour, Probes: 1}, // open stays open for the test
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := collect(srv)
	// Feed failures until the breaker trips.
	deadline := time.Now().Add(5 * time.Second)
	i := 0
	for srv.breaker.Opens() == 0 && time.Now().Before(deadline) {
		if err := srv.Submit(synthArrival(i, model.Standard)); err != nil {
			t.Fatal(err)
		}
		i++
		time.Sleep(time.Millisecond)
	}
	if srv.breaker.Opens() == 0 {
		t.Fatal("breaker never opened under sustained rejection")
	}
	subsBefore := fb.subs.Load()
	// With the breaker open, non-critical arrivals shed at dispatch and
	// Critical still submits.
	fb.mode.Store(fakeAdmit)
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
	if rep.ShedBreaker == 0 {
		t.Fatalf("open breaker shed nothing: %+v", rep)
	}
	if fb.subs.Load() == subsBefore {
		t.Fatal("Critical arrival never reached the backend through the open breaker")
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
