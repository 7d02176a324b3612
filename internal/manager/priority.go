package manager

import (
	"sync"
	"time"

	"rtsm/internal/model"
)

// Priority-aware admission queue. The pipeline used to be one FIFO
// channel: under load a latency-critical arrival waited behind best-effort
// churn. The prioQueue replaces it with one FIFO per admission class plus
// aging: a worker pops the head with the highest *effective* class, where
// a job's effective class grows by one level per Aging of queue time (up
// to Critical). Strict priority alone would starve best-effort work under
// a continuous critical stream; with aging, once a job has waited
// Aging×(NumPriorities−1−class) it competes at the top class, and the
// enqueue-time tie-break then guarantees no later arrival of any class is
// popped before it — the bounded-bypass fairness property
// priority_prop_test.go pins.

// DefaultAging is the queue time that promotes a waiting admission by one
// priority class.
const DefaultAging = 100 * time.Millisecond

// prioQueue is a bounded multi-class FIFO. All methods are safe for
// concurrent use. The zero value is not usable; see newPrioQueue.
type prioQueue struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	queues   [model.NumPriorities][]*job
	size     int
	depth    int
	aging    time.Duration
	closed   bool
	// now is the clock, injectable so the fairness property tests can
	// drive aging deterministically.
	now func() time.Time
}

// newPrioQueue returns a queue holding at most depth jobs (depth < 1 is
// treated as 1: a single handoff slot).
func newPrioQueue(depth int, aging time.Duration) *prioQueue {
	if depth < 1 {
		depth = 1
	}
	q := &prioQueue{depth: depth, aging: aging, now: time.Now}
	q.notEmpty.L = &q.mu
	q.notFull.L = &q.mu
	return q
}

// clampPriority folds out-of-range classes into the valid range so a
// wild priority value cannot index outside the per-class queues.
func clampPriority(p model.Priority) model.Priority {
	if p < 0 {
		return 0
	}
	if int(p) >= model.NumPriorities {
		return model.Priority(model.NumPriorities - 1)
	}
	return p
}

// effectiveClass is the class the job competes at now: its own class plus
// one level per aging interval spent queued, capped at the top class.
func (q *prioQueue) effectiveClass(j *job, now time.Time) int {
	c := int(clampPriority(j.prio))
	if q.aging <= 0 {
		return c
	}
	c += int(now.Sub(j.enqueued) / q.aging)
	if c >= model.NumPriorities {
		c = model.NumPriorities - 1
	}
	return c
}

// push enqueues a job, blocking while the queue is full. It reports false
// when the queue closed (before or while waiting for a slot).
func (q *prioQueue) push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size >= q.depth && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return false
	}
	q.enqueueLocked(j)
	return true
}

// tryPush is push without the blocking: it reports false when the queue
// is full or closed.
func (q *prioQueue) tryPush(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.size >= q.depth {
		return false
	}
	q.enqueueLocked(j)
	return true
}

func (q *prioQueue) enqueueLocked(j *job) {
	// Stamp the enqueue time with the queue's own clock, the same source
	// the aging promotion reads: under an injected test clock the
	// worker's wait accounting and the effective-class computation now
	// agree by construction (they used to diverge when jobs stamped
	// themselves with time.Now at construction).
	j.enqueued = q.now()
	c := clampPriority(j.prio)
	q.queues[c] = append(q.queues[c], j)
	q.size++
	q.notEmpty.Signal()
}

// clock reads the queue's time source — the one enqueue stamps and aging
// reads — so callers computing queue waits stay consistent with both.
func (q *prioQueue) clock() time.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.now()
}

// pop dequeues the job with the highest effective class, breaking ties by
// enqueue time (oldest first). It blocks while the queue is empty and
// returns false once the queue is closed and drained.
func (q *prioQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil, false
		}
		q.notEmpty.Wait()
	}
	j := q.dequeueLocked()
	q.notFull.Signal()
	return j, true
}

// dequeueLocked removes and returns the winning head. Within a class FIFO
// order makes the head the oldest — and therefore the highest-effective —
// job of its class, so only the heads need comparing.
func (q *prioQueue) dequeueLocked() *job {
	now := q.now()
	best := -1
	bestClass := -1
	for c := range q.queues {
		if len(q.queues[c]) == 0 {
			continue
		}
		head := q.queues[c][0]
		eff := q.effectiveClass(head, now)
		if best < 0 || eff > bestClass ||
			(eff == bestClass && head.enqueued.Before(q.queues[best][0].enqueued)) {
			best, bestClass = c, eff
		}
	}
	j := q.queues[best][0]
	q.queues[best][0] = nil // release the slot for GC
	q.queues[best] = q.queues[best][1:]
	q.size--
	return j
}

// close marks the queue closed and wakes every waiter. Queued jobs remain
// poppable; pushes fail from here on.
func (q *prioQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// len returns the number of queued jobs.
func (q *prioQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}
