package manager

import (
	"fmt"
	"sync"
	"time"

	"rtsm/internal/model"
)

// Request is one admission to run through a Pipeline.
type Request struct {
	App *model.Application
	Lib *model.Library
}

type job struct {
	req  Request
	prio model.Priority
	// enqueued is stamped by the queue itself (prioQueue.enqueueLocked)
	// with the queue's own clock, so wait accounting and aging promotion
	// read the same time source.
	enqueued time.Time
	done     chan Outcome
}

// Pipeline is a bounded admission work queue in front of a Manager: up to
// `depth` requests wait in the queue and `workers` goroutines run the
// speculative mapping phase concurrently. Submit blocks when the queue is
// full, giving callers natural backpressure; TrySubmit sheds load instead.
//
// The queue is priority-aware: requests are classed by their
// application's QoS priority (model.Priority, tagged on the spec) into
// per-class FIFOs, and workers serve the highest class first. Aging keeps
// this starvation-free — a request promotes by one class per DefaultAging
// interval spent queued, so under a continuous high-priority stream a
// best-effort request still reaches the top class after a bounded wait
// and is then served before any later arrival. With every request
// untagged (BestEffort, the zero value) the queue degenerates to the
// plain FIFO of the pre-priority pipeline.
//
// Departures need no queue — call Manager.Stop directly, it only takes
// the short commit lock.
type Pipeline struct {
	m *Manager
	q *prioQueue

	// closing serializes Close itself (idempotence); it is NOT held
	// across queue operations. Submitters never take it: close detection
	// lives in the queue, so a Submit blocked on a full queue wakes and
	// returns the close error the moment Close lands, instead of
	// stalling Close behind a reader lock held across the blocking push
	// (the pipeline-shutdown stall this layout fixes).
	closing sync.Mutex
	closed  bool
	wg      sync.WaitGroup
}

// NewPipeline starts a pipeline with the given number of admission
// workers and queue slots. workers < 1 is treated as 1; depth < 1 keeps a
// single queue slot (every Submit hands off almost directly to a worker).
func NewPipeline(m *Manager, workers, depth int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	p := &Pipeline{m: m, q: newPrioQueue(depth, DefaultAging)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		j, ok := p.q.pop()
		if !ok {
			return
		}
		wait := p.q.clock().Sub(j.enqueued)
		j.done <- p.m.admit(j.req.App, j.req.Lib, wait)
	}
}

// Submit enqueues an admission request, blocking while the queue is full,
// and returns a channel that delivers the Outcome. The request is queued
// at the application's own QoS class. The channel is buffered: a caller
// that abandons it leaks nothing and blocks no worker. A Submit blocked
// on a full queue returns the close error as soon as Close lands; it
// never outwaits the shutdown.
func (p *Pipeline) Submit(app *model.Application, lib *model.Library) (<-chan Outcome, error) {
	j := newJob(app, lib)
	if !p.q.push(j) {
		return nil, errPipelineClosed
	}
	return j.done, nil
}

// TrySubmit is Submit without the blocking: it reports false when the
// queue is full or the pipeline closed, so callers can shed load — and
// count what they shed; the manager's Stats only see arrivals that reach
// a worker.
func (p *Pipeline) TrySubmit(app *model.Application, lib *model.Library) (<-chan Outcome, bool) {
	j := newJob(app, lib)
	if !p.q.tryPush(j) {
		return nil, false
	}
	return j.done, true
}

// errPipelineClosed is the stable close error Submit returns.
var errPipelineClosed = fmt.Errorf("manager: pipeline is closed")

func newJob(app *model.Application, lib *model.Library) *job {
	return &job{
		req:  Request{App: app, Lib: lib},
		prio: app.QoS.Priority.Clamp(),
		done: make(chan Outcome, 1),
	}
}

// Close stops accepting requests, drains the queue and waits for all
// workers to finish. Outcomes of already-submitted requests are still
// delivered. Close never waits on submitters: closing the queue wakes
// every Submit blocked on a full queue (each returns the close error),
// so Close completes even under a continuous submit storm.
func (p *Pipeline) Close() {
	p.closing.Lock()
	if p.closed {
		p.closing.Unlock()
		return
	}
	p.closed = true
	p.closing.Unlock()
	// Workers drain the queue after close(): pop keeps delivering queued
	// jobs and only reports done once the queue is empty.
	p.q.close()
	p.wg.Wait()
}
