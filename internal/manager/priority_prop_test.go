package manager

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtsm/internal/model"
)

// Property tests for the priority queue's fairness contract, driven with
// an injected clock so aging is deterministic. The pop rule under test:
// the queue always dequeues the job with the highest effective class
// (own class + one level per aging interval queued, capped at the top),
// ties broken by enqueue time. Two theorems follow and are checked over
// randomized arrival streams:
//
//  1. Per-class FIFO: within one class, jobs are dequeued in enqueue
//     order (aging preserves relative order inside a class).
//  2. Bounded bypass (the aging bound): once a job has waited
//     aging × (NumPriorities−1 − class), it competes at the top class,
//     and from then on no later-enqueued job of ANY class is dequeued
//     before it. A best-effort admission therefore waits at most the
//     aging bound plus the drain time of the jobs already ahead of it —
//     it cannot starve behind a continuous higher-class stream.

// propClock is a manually advanced clock for the queue's now func.
type propClock struct{ t time.Time }

func (c *propClock) now() time.Time { return c.t }

func newPropQueue(depth int, aging time.Duration) (*prioQueue, *propClock) {
	q := newPrioQueue(depth, aging)
	clk := &propClock{t: time.Unix(0, 0)}
	q.now = clk.now
	return q, clk
}

// agingBound is the queue time after which a job of the lowest class
// competes at the top class.
func agingBound(aging time.Duration) time.Duration {
	return aging * time.Duration(model.NumPriorities-1)
}

func TestPriorityQueueFairnessProperties(t *testing.T) {
	const aging = 100 * time.Millisecond
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			q, clk := newPropQueue(1<<20, aging)

			// A randomized interleaving of pushes and pops with the clock
			// advancing in random steps, biased toward a backlog so aging
			// actually engages.
			next := 0
			var popped []*job
			queued := make(map[*job]struct{})
			step := func() {
				clk.t = clk.t.Add(time.Duration(rng.Intn(40)) * time.Millisecond)
				if rng.Intn(3) < 2 || q.len() == 0 {
					j := &job{
						prio:     model.Priority(rng.Intn(model.NumPriorities)),
						enqueued: clk.t,
						done:     make(chan Outcome, 1),
					}
					j.req.App = nil // payload is irrelevant to ordering
					_ = next
					next++
					if !q.tryPush(j) {
						t.Fatal("queue full despite huge depth")
					}
					queued[j] = struct{}{}
					return
				}
				// Before popping, note every queued job already at the top
				// effective class: the winner must be the oldest of them.
				var agedOldest *job
				for j := range queued {
					if q.effectiveClass(j, clk.t) == model.NumPriorities-1 {
						if agedOldest == nil || j.enqueued.Before(agedOldest.enqueued) {
							agedOldest = j
						}
					}
				}
				j, ok := q.pop()
				if !ok {
					t.Fatal("pop on non-empty queue failed")
				}
				delete(queued, j)
				popped = append(popped, j)
				// Pop-rule check: nothing left queued may strictly dominate
				// the winner (higher effective class, or same class and
				// earlier enqueue).
				effJ := q.effectiveClass(j, clk.t)
				for k := range queued {
					effK := q.effectiveClass(k, clk.t)
					if effK > effJ {
						t.Fatalf("popped eff %d while eff %d was queued", effJ, effK)
					}
					if effK == effJ && k.enqueued.Before(j.enqueued) {
						t.Fatalf("popped a younger job at equal effective class")
					}
				}
				// Bounded bypass: with a top-class job waiting, the winner
				// is enqueued no later than the oldest such job. In
				// particular a best-effort job that has aged past
				// agingBound is never overtaken by a later arrival.
				if agedOldest != nil && j.enqueued.After(agedOldest.enqueued) {
					t.Fatalf("job enqueued at %v overtook a fully aged job from %v",
						j.enqueued, agedOldest.enqueued)
				}
			}
			for i := 0; i < 3000; i++ {
				step()
			}
			// Drain and check per-class FIFO over the whole history.
			for q.len() > 0 {
				j, _ := q.pop()
				popped = append(popped, j)
			}
			var lastByClass [model.NumPriorities]time.Time
			for _, j := range popped {
				c := j.prio.Clamp()
				if j.enqueued.Before(lastByClass[c]) {
					t.Fatalf("class %v dequeued out of FIFO order", c)
				}
				lastByClass[c] = j.enqueued
			}
		})
	}
}

// TestPriorityQueueAgingBoundEndToEnd pins the fairness theorem in its
// user-facing form: a best-effort job enqueued into a continuous stream
// of critical arrivals is served once its wait crosses the aging bound —
// strict priority without aging would starve it forever.
func TestPriorityQueueAgingBoundEndToEnd(t *testing.T) {
	const aging = 50 * time.Millisecond
	q, clk := newPropQueue(1<<16, aging)

	be := &job{prio: model.BestEffort, enqueued: clk.t}
	if !q.tryPush(be) {
		t.Fatal("push failed")
	}
	served := false
	var wait time.Duration
	for i := 0; i < 100; i++ {
		// One critical arrival and one service per 10ms tick: the
		// critical stream alone would saturate the queue forever.
		crit := &job{prio: model.Critical, enqueued: clk.t}
		if !q.tryPush(crit) {
			t.Fatal("push failed")
		}
		clk.t = clk.t.Add(10 * time.Millisecond)
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		if j == be {
			served = true
			wait = clk.t.Sub(be.enqueued)
			break
		}
	}
	if !served {
		t.Fatal("best-effort job starved behind the critical stream")
	}
	// Served at the first pop after crossing the bound; with one service
	// per tick the wait is the bound plus at most one tick.
	if limit := agingBound(aging) + 10*time.Millisecond; wait > limit {
		t.Fatalf("best-effort wait %v exceeds aging bound %v", wait, limit)
	}
	// Sanity: without aging the same stream starves the best-effort job.
	q2, clk2 := newPropQueue(1<<16, 0)
	be2 := &job{prio: model.BestEffort, enqueued: clk2.t}
	q2.tryPush(be2)
	for i := 0; i < 100; i++ {
		q2.tryPush(&job{prio: model.Critical, enqueued: clk2.t})
		clk2.t = clk2.t.Add(10 * time.Millisecond)
		if j, _ := q2.pop(); j == be2 {
			t.Fatal("strict-priority queue served the best-effort job ahead of critical work")
		}
	}
}
