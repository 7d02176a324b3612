package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtsm/internal/core"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

func synthReq(i int) (*model.Application, *model.Library) {
	app, lib := workload.Synthetic(workload.SynthOptions{
		Shape:     workload.ShapeChain,
		Processes: 3,
		Seed:      int64(i % 8),
		MaxUtil:   0.15,
		PeriodNs:  40_000,
	})
	app.Name = fmt.Sprintf("pipe-%d", i)
	return app, lib
}

func TestPipelineDeliversAllOutcomes(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	pipe := NewPipeline(m, 3, 4)

	const n = 20
	chans := make([]<-chan Outcome, n)
	for i := 0; i < n; i++ {
		ch, err := pipe.Submit(synthReq(i))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	admitted := 0
	for i, ch := range chans {
		out := <-ch
		if out.App != fmt.Sprintf("pipe-%d", i) {
			t.Fatalf("outcome %d is for %q", i, out.App)
		}
		if out.Admitted {
			admitted++
			if err := m.Stop(out.App); err != nil {
				t.Fatal(err)
			}
		} else if out.Err == nil {
			t.Fatalf("outcome %d has neither admission nor error", i)
		}
		if out.Admitted && out.Wait < 0 {
			t.Fatalf("outcome %d has negative wait", i)
		}
	}
	if admitted == 0 {
		t.Fatal("pipeline admitted nothing")
	}
	st := m.Stats()
	if st.Admitted+st.Rejected != n {
		t.Fatalf("stats account for %d arrivals, want %d", st.Admitted+st.Rejected, n)
	}
	pipe.Close()
	if _, err := pipe.Submit(synthReq(99)); err == nil {
		t.Fatal("Submit after Close succeeded")
	}
	if _, ok := pipe.TrySubmit(synthReq(99)); ok {
		t.Fatal("TrySubmit after Close succeeded")
	}
	pipe.Close() // idempotent
}

func TestPipelineCloseDrainsQueue(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	pipe := NewPipeline(m, 2, 8)
	const n = 10
	chans := make([]<-chan Outcome, n)
	for i := 0; i < n; i++ {
		ch, err := pipe.Submit(synthReq(i))
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	pipe.Close() // must wait for all ten, not drop queued ones
	for i, ch := range chans {
		select {
		case <-ch:
		default:
			t.Fatalf("outcome %d not delivered after Close", i)
		}
	}
}

func TestPipelineTrySubmitShedsWhenFull(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	// One worker, one queue slot: while the worker maps (milliseconds)
	// the slot fills and further microsecond-scale TrySubmits must shed.
	// The first TrySubmit always lands in the empty buffer, so out of
	// many rapid ones at least one is accepted and at least one is shed.
	pipe := NewPipeline(m, 1, 1)
	defer pipe.Close()
	accepted, shed := 0, 0
	var chans []<-chan Outcome
	for i := 0; i < 12; i++ {
		if ch, ok := pipe.TrySubmit(synthReq(i)); ok {
			accepted++
			chans = append(chans, ch)
		} else {
			shed++
		}
	}
	for _, ch := range chans {
		<-ch
	}
	if accepted == 0 {
		t.Error("every TrySubmit was shed")
	}
	if shed == 0 {
		t.Error("no TrySubmit was shed despite a full pipeline")
	}
	// Shed arrivals never reach a worker, so the manager's ledger holds
	// exactly the accepted ones; counting sheds is the caller's job.
	if st := m.Stats(); st.Admitted+st.Rejected != uint64(accepted) {
		t.Errorf("stats record %d arrivals, want the %d accepted", st.Admitted+st.Rejected, accepted)
	}
}

// TestMappingReuseSemantics pins the template fast path: a second
// structurally identical arrival is admitted without a mapper run, holds
// real reservations, and releases them cleanly.
func TestMappingReuseSemantics(t *testing.T) {
	plat := workload.SyntheticPlatform(6, 6, 1)
	pristine := plat.Residual()
	m := New(plat, core.Config{})

	mk := func(name string) (*model.Application, *model.Library) {
		app, lib := workload.Synthetic(workload.SynthOptions{
			Shape: workload.ShapeChain, Processes: 4, Seed: 5, MaxUtil: 0.15, PeriodNs: 40_000})
		app.Name = name
		return app, lib
	}
	a1, l1 := mk("first")
	f1, err := Fingerprint(a1, l1)
	if err != nil {
		t.Fatal(err)
	}
	a2, l2 := mk("second")
	f2, err := Fingerprint(a2, l2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("structurally identical apps fingerprint differently")
	}
	a3, l3 := workload.Synthetic(workload.SynthOptions{
		Shape: workload.ShapeChain, Processes: 4, Seed: 6, MaxUtil: 0.15, PeriodNs: 40_000})
	if f3, _ := Fingerprint(a3, l3); f3 == f1 {
		t.Fatal("different structures share a fingerprint")
	}

	if out := m.Admit(a1, l1); !out.Admitted {
		t.Fatalf("first admission failed: %v", out.Err)
	}
	// Release the first so the remembered placement is guaranteed free:
	// this pins the hit path deterministically (with the first still
	// resident the template may conflict on a single-occupancy tile and
	// legitimately fall back to a fresh mapping).
	if err := m.Stop("first"); err != nil {
		t.Fatal(err)
	}
	out := m.Admit(a2, l2)
	if !out.Admitted {
		t.Fatalf("second admission failed: %v", out.Err)
	}
	if m.Stats().TemplateHits != 1 {
		t.Fatalf("TemplateHits = %d, want 1", m.Stats().TemplateHits)
	}
	if out.Attempts != 0 || out.Map != 0 {
		t.Fatalf("template admission ran the mapper: attempts=%d map=%v", out.Attempts, out.Map)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := m.Stop("second"); err != nil {
		t.Fatal(err)
	}
	if got := m.Residual(); !got.Equal(pristine) {
		t.Fatal("template reuse corrupted the reservation ledger")
	}
}

// TestCloseReturnsWhileSubmitBlockedOnFullQueue is the shutdown-stall
// regression test. The old pipeline held a reader lock across the
// blocking queue push, so a Submit stuck on a full queue could stall
// Close (a writer) indefinitely. Now close detection lives inside the
// queue: Close must return promptly even though a Submit is parked on a
// full queue, and that Submit must come back with the close error. A
// workerless pipeline keeps the queue full deterministically.
func TestCloseReturnsWhileSubmitBlockedOnFullQueue(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	p := &Pipeline{m: m, q: newPrioQueue(1, DefaultAging)} // no workers: nothing drains

	if _, err := p.Submit(synthReq(0)); err != nil { // fills the only slot
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := p.Submit(synthReq(1)) // parks in push on the full queue
		blocked <- err
	}()
	// Wait until the submitter is actually parked inside the queue.
	for i := 0; ; i++ {
		select {
		case err := <-blocked:
			t.Fatalf("second Submit returned before Close: %v", err)
		default:
		}
		if i > 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close stalled behind a Submit blocked on a full queue")
	}
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("Submit blocked across Close reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit stayed blocked after Close")
	}
}

// TestCloseUnderSubmitStorm closes the pipeline while submitter
// goroutines hammer it continuously. Close must complete, every Submit
// must resolve (outcome or close error), and each accepted request must
// deliver exactly one outcome.
func TestCloseUnderSubmitStorm(t *testing.T) {
	m := New(workload.SyntheticPlatform(6, 6, 1), core.Config{})
	p := NewPipeline(m, 2, 2)

	const submitters = 6
	var accepted, refused, delivered atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ch, err := p.Submit(synthReq(s*10_000 + i))
				if err != nil {
					refused.Add(1)
					return // pipeline closed; storm over for this submitter
				}
				accepted.Add(1)
				out := <-ch
				delivered.Add(1)
				if out.Admitted {
					_ = m.Stop(out.App)
				}
			}
		}(s)
	}
	time.Sleep(20 * time.Millisecond) // let the storm build up

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not complete under a continuous submit storm")
	}
	close(stop)
	wg.Wait()
	if accepted.Load() != delivered.Load() {
		t.Fatalf("%d accepted submissions but %d outcomes delivered",
			accepted.Load(), delivered.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("storm produced no accepted submissions; fixture broken")
	}
}

// TestQueueStampsEnqueueWithInjectedClock pins the clock-consistency
// fix: the enqueue timestamp that wait accounting and aging promotion
// read must come from the queue's own (injectable) clock, not from a
// time.Now taken at job construction.
func TestQueueStampsEnqueueWithInjectedClock(t *testing.T) {
	q := newPrioQueue(4, DefaultAging)
	fake := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return fake }

	j := newJob(synthReq(0))
	if !j.enqueued.IsZero() {
		t.Fatal("newJob stamped its own enqueue time; the queue clock must own it")
	}
	if !q.push(j) {
		t.Fatal("push failed")
	}
	if !j.enqueued.Equal(fake) {
		t.Fatalf("enqueued stamped %v, want the injected clock's %v", j.enqueued, fake)
	}
	if got := q.clock(); !got.Equal(fake) {
		t.Fatalf("queue clock reads %v, want %v", got, fake)
	}
	fake = fake.Add(3 * time.Second)
	if wait := q.clock().Sub(j.enqueued); wait != 3*time.Second {
		t.Fatalf("wait computed from queue clock is %v, want 3s", wait)
	}
}
