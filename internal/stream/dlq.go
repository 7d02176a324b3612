package stream

import (
	"sync"

	"rtsm/internal/model"
)

// dlqEntry is one capacity-rejected arrival parked for retry: the spec
// was structurally fine, the mesh was just full when it arrived.
type dlqEntry struct {
	arr arrival
	// class is the arrival's clamped admission class; it selects the
	// per-class quota the entry occupies.
	class model.Priority
	// attempts counts backend submissions so far (≥ 1: the original
	// rejected one).
	attempts int
}

// dlq is the dead-letter queue: per-class bounded FIFOs of
// capacity-rejected arrivals that the server re-enqueues once measured
// utilization drops below the retry threshold. Each class has its own
// quota — Critical the full configured capacity, Standard half,
// BestEffort a quarter — so a flood of BestEffort rejections can fill
// only its own lane and never expires a parked Critical retry. Retry
// rounds drain the highest class first, as the pipeline's queue serves
// them. All methods are safe for concurrent use.
type dlq struct {
	mu      sync.Mutex
	entries [model.NumPriorities][]dlqEntry
	caps    [model.NumPriorities]int
}

// newDLQ sizes the per-class quotas from the configured capacity:
// Critical gets all of it, Standard half, BestEffort a quarter (min 1
// each), the same asymmetry as the class shares.
func newDLQ(capacity int) *dlq {
	d := &dlq{}
	d.caps[model.Critical] = capacity
	d.caps[model.Standard] = max(1, capacity/2)
	d.caps[model.BestEffort] = max(1, capacity/4)
	return d
}

// add parks an entry in its class lane; false means that class's quota
// is spent and the entry must expire instead. Other classes' pressure
// never counts against it.
func (d *dlq) add(e dlqEntry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := e.class.Clamp()
	if len(d.entries[c]) >= d.caps[c] {
		return false
	}
	d.entries[c] = append(d.entries[c], e)
	return true
}

// popN removes up to n entries for a retry round, highest class
// first and oldest first within a class — a recovering mesh readmits
// its parked Critical work before any BestEffort backlog.
func (d *dlq) popN(n int) []dlqEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []dlqEntry
	for c := model.NumPriorities - 1; c >= 0 && n > 0; c-- {
		take := n
		if take > len(d.entries[c]) {
			take = len(d.entries[c])
		}
		if take == 0 {
			continue
		}
		out = append(out, d.entries[c][:take]...)
		d.entries[c] = append(d.entries[c][:0], d.entries[c][take:]...)
		n -= take
	}
	return out
}

// drain empties every lane — the shutdown path, where each remaining
// entry expires. Highest class first, for deterministic expiry order.
func (d *dlq) drain() []dlqEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []dlqEntry
	for c := model.NumPriorities - 1; c >= 0; c-- {
		out = append(out, d.entries[c]...)
		d.entries[c] = nil
	}
	return out
}

// depth reports the total parked count across classes.
func (d *dlq) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, lane := range d.entries {
		n += len(lane)
	}
	return n
}

// depthOf reports one class lane's parked count.
func (d *dlq) depthOf(c model.Priority) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries[c.Clamp()])
}
