package stream

import (
	"sync"
	"time"
)

// BreakerConfig tunes the server's circuit breaker. The breaker watches
// the outcomes of arrivals actually submitted to the backend (not the
// ones shed earlier): sustained capacity rejections open it (a
// structural rejection of an unmappable request counts for nothing), and
// while open the server sheds Standard and BestEffort arrivals at
// submit instead of burning mapping rounds on a saturated backend. Critical arrivals always pass through — their contract is
// blocking backpressure, not fail-fast.
type BreakerConfig struct {
	// Window is the rolling interval over which the failure ratio is
	// measured (default 500ms).
	Window time.Duration
	// MinSamples is the minimum number of outcomes inside the window
	// before the ratio can trip the breaker (default 20), so a single
	// early rejection cannot open it.
	MinSamples int
	// Ratio is the failure fraction that opens the breaker (default 0.5).
	Ratio float64
	// Cooldown is how long the breaker stays open before it half-opens
	// and lets probe arrivals through (default 250ms).
	Cooldown time.Duration
	// Probes is how many arrivals the half-open state admits; that many
	// consecutive successes close the breaker, any failure reopens it
	// (default 5).
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 500 * time.Millisecond
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.Ratio <= 0 || c.Ratio > 1 {
		c.Ratio = 0.5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.Probes <= 0 {
		c.Probes = 5
	}
	return c
}

type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for reports and the /metricsz endpoint.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breakerBuckets subdivide the rolling window so the failure ratio
// decays smoothly without keeping a per-sample history: memory stays
// O(buckets) no matter the arrival rate.
const breakerBuckets = 10

// breaker is the classic three-state circuit breaker over a bucketed
// rolling failure ratio. All methods are safe for concurrent use.
type breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	state    breakerState
	openedAt time.Time
	buckets  [breakerBuckets]struct{ ok, fail int }
	bucketAt time.Time // start of the current bucket
	cur      int
	// probesOK counts consecutive half-open successes; probesSent counts
	// arrivals let through since half-opening.
	probesOK   int
	probesSent int
	opens      uint64
	// now is the clock, injectable for deterministic tests.
	now func() time.Time
}

func newBreaker(cfg BreakerConfig) *breaker {
	b := &breaker{cfg: cfg.withDefaults(), now: time.Now}
	b.bucketAt = b.now()
	return b
}

// advanceLocked rotates the bucket ring to the current time, zeroing
// buckets that fell out of the window.
func (b *breaker) advanceLocked(now time.Time) {
	steps, at := ringAdvance(b.bucketAt, now, b.cfg.Window/breakerBuckets, breakerBuckets)
	for i := 0; i < steps; i++ {
		b.cur = (b.cur + 1) % breakerBuckets
		b.buckets[b.cur] = struct{ ok, fail int }{}
	}
	b.bucketAt = at
}

// allow reports whether a non-critical arrival may proceed to the
// backend. Open sheds; half-open admits up to Probes arrivals.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.advanceLocked(now)
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probesOK = 0
		b.probesSent = 1
		return true
	default: // half-open
		if b.probesSent >= b.cfg.Probes {
			return false
		}
		b.probesSent++
		return true
	}
}

// record feeds one backend outcome into the breaker: fail is a
// retryable (capacity) rejection.
func (b *breaker) record(fail bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.advanceLocked(now)
	if fail {
		b.buckets[b.cur].fail++
	} else {
		b.buckets[b.cur].ok++
	}
	switch b.state {
	case breakerClosed:
		ok, bad := 0, 0
		for _, bk := range b.buckets {
			ok += bk.ok
			bad += bk.fail
		}
		total := ok + bad
		if total >= b.cfg.MinSamples && float64(bad) >= b.cfg.Ratio*float64(total) {
			b.openLocked(now)
		}
	case breakerHalfOpen:
		if fail {
			b.openLocked(now)
			return
		}
		b.probesOK++
		if b.probesOK >= b.cfg.Probes {
			b.state = breakerClosed
			b.buckets = [breakerBuckets]struct{ ok, fail int }{}
		}
	}
}

// returnProbe hands back the half-open probe slot of an arrival whose
// outcome said nothing about saturation (a structural rejection, or a
// shed at the backend queue that never reached a mapper), so the breaker
// can still collect its Probes verdicts and close.
func (b *breaker) returnProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen && b.probesSent > 0 {
		b.probesSent--
	}
}

// openLocked trips the breaker and clears the window so the half-open
// verdict starts from a blank slate.
func (b *breaker) openLocked(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.opens++
	b.probesOK = 0
	b.probesSent = 0
	b.buckets = [breakerBuckets]struct{ ok, fail int }{}
}

// Opens reports how many times the breaker tripped.
func (b *breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// State reports the current state, advancing open→half-open if the
// cooldown has elapsed (read-only callers see the same state an allow
// call would act on).
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return breakerHalfOpen
	}
	return b.state
}
