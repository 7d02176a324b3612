package stream

import (
	"math"
	"sync/atomic"
	"time"
)

// AIMDConfig tunes the adaptive admission-rate controller: a classic
// additive-increase / multiplicative-decrease loop over the server's
// rolling service-latency window. Every Interval the controller reads
// the windowed p99 service latency (backend submission → outcome,
// excluding ingress/class-buffer queue wait — under backpressure queue
// wait grows with buffer depth at any sub-capacity rate, so steering on
// end-to-end latency would drive the rate to the floor); while it holds
// under the SLO (and the circuit breaker is closed) the dispatch rate
// rises by Increase arrivals/sec, and on a breach — p99 over the SLO,
// or an open breaker — the rate is cut to Decrease of the measured
// operating point (at most once per window span, so one lingering spike
// costs one cut, not one per tick). The resulting sawtooth hovers just
// under the backend's real capacity, which is the whole point: the
// operator declares a latency objective instead of hand-tuning a rate
// against a mesh whose capacity moves with faults, preemption and load
// mix.
//
// A zero SLO disables the controller and dispatch runs unthrottled.
type AIMDConfig struct {
	// SLO is the p99 service-latency objective; > 0 enables the
	// controller.
	SLO time.Duration
	// MinRate and MaxRate clamp the controlled rate in arrivals/sec
	// (defaults 50 and 1e6). The controller starts at MaxRate —
	// optimistic, so an unsaturated server pays no throttle tax — and
	// cuts multiplicatively on the first breach.
	MinRate float64
	MaxRate float64
	// Increase is the additive raise per interval in arrivals/sec
	// (default 200).
	Increase float64
	// Decrease is the multiplicative cut factor in (0, 1) applied on a
	// breach (default 0.7).
	Decrease float64
	// Interval is the control period (default 20ms). It should cover a
	// few window buckets: reacting faster than the p99 estimate moves
	// just amplifies noise.
	Interval time.Duration
}

func (c AIMDConfig) withDefaults() AIMDConfig {
	if c.MinRate <= 0 {
		c.MinRate = 50
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 1e6
	}
	if c.MaxRate < c.MinRate {
		c.MaxRate = c.MinRate
	}
	if c.Increase <= 0 {
		c.Increase = 200
	}
	if c.Decrease <= 0 || c.Decrease >= 1 {
		c.Decrease = 0.7
	}
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	return c
}

// enabled reports whether the controller runs.
func (c AIMDConfig) enabled() bool { return c.SLO > 0 }

// rateBox holds the live dispatch rate as float bits so the classify
// stage can read it lock-free on every arrival.
type rateBox struct{ bits atomic.Uint64 }

func (r *rateBox) load() float64   { return math.Float64frombits(r.bits.Load()) }
func (r *rateBox) store(v float64) { r.bits.Store(math.Float64bits(v)) }

// aimdLoop is the controller goroutine: one rate decision per interval
// until the server quits. It never touches the stage channels — the
// classify stage reads the rate box on its own schedule — so a stalled
// pipeline cannot wedge the controller or vice versa.
func (s *Server) aimdLoop() {
	defer close(s.aimdDone)
	cfg := s.opts.AIMD
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	var lastCut time.Time
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			snap := s.svcWin.Snapshot()
			rate := s.rate.load()
			if (snap.Samples > 0 && snap.P99 > cfg.SLO) || s.breaker.State() == breakerOpen {
				// One cut per window epoch: a single spike stays in the
				// rolling window for its whole span, and cutting again on
				// every tick it lingers would collapse the rate to the floor
				// (Decrease^(window/interval) per spike) instead of backing
				// off once and watching the effect.
				if time.Since(lastCut) < s.opts.Window {
					continue
				}
				lastCut = time.Now()
				// Cut from the measured operating point, not the nominal
				// ceiling: while the bucket is not binding (rate far above
				// actual throughput), cutting the nominal rate changes
				// nothing for many ticks and then overshoots. min(rate,
				// admitted/sec) is where the system actually runs.
				if snap.PerSec > 0 && snap.PerSec < rate {
					rate = snap.PerSec
				}
				rate *= cfg.Decrease
				if rate < cfg.MinRate {
					rate = cfg.MinRate
				}
				s.c.rateCuts.Add(1)
			} else {
				rate += cfg.Increase
				if rate > cfg.MaxRate {
					rate = cfg.MaxRate
				}
				s.c.rateRaises.Add(1)
			}
			s.rate.store(rate)
		}
	}
}

// AdmitRate is the dispatch throttle's current arrivals/sec: the AIMD
// controller's live rate, or 0 for unlimited.
func (s *Server) AdmitRate() float64 { return s.rate.load() }
