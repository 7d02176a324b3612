package stream

import (
	"sort"
	"sync"
	"time"
)

// windowBuckets subdivide the metrics window for the admissions/sec
// rate: counting survives any arrival rate in O(buckets) memory.
const windowBuckets = 20

// windowSampleCap bounds the latency reservoir. Percentiles are
// computed over the most recent samples only; under extreme admission
// rates the reservoir is a sliding sample of the window rather than a
// census, which is what a live p50/p99 wants anyway.
const windowSampleCap = 8192

// WindowSnapshot is a point-in-time view of the rolling metrics window.
type WindowSnapshot struct {
	// P50 and P99 are admission-latency percentiles (Submit → admitted
	// outcome) over the window's samples; zero when nothing was admitted.
	P50, P99 time.Duration
	// PerSec is the admission rate over the window.
	PerSec float64
	// Samples is how many admissions the percentile estimate is over.
	Samples int
}

// metricsWindow tracks rolling admission latency percentiles and rate.
// All methods are safe for concurrent use.
type metricsWindow struct {
	mu     sync.Mutex
	window time.Duration

	counts   [windowBuckets]int
	bucketAt time.Time
	cur      int

	samples []sample
	head    int
	full    bool

	now func() time.Time
}

type sample struct {
	t   time.Time
	lat time.Duration
}

func newMetricsWindow(window time.Duration) *metricsWindow {
	if window <= 0 {
		window = time.Second
	}
	w := &metricsWindow{
		window:  window,
		samples: make([]sample, 0, 1024),
		now:     time.Now,
	}
	w.bucketAt = w.now()
	return w
}

// ringAdvance is the metrics window's bucket rotation: how many of a
// ring's n buckets of the given span to rotate past to reach now, and
// when the then-current bucket started. The start moves by whole spans,
// so the part of a span already elapsed stays elapsed; restarting the
// bucket at now instead would stretch the ring whenever calls come
// slower than one per span. Only a ring that expired as a whole
// restarts at now.
func ringAdvance(bucketAt, now time.Time, span time.Duration, n int) (steps int, at time.Time) {
	steps = int(now.Sub(bucketAt) / span)
	switch {
	case steps <= 0:
		return 0, bucketAt
	case steps >= n:
		return n, now
	}
	return steps, bucketAt.Add(time.Duration(steps) * span)
}

func (w *metricsWindow) advanceLocked(now time.Time) {
	steps, at := ringAdvance(w.bucketAt, now, w.window/windowBuckets, windowBuckets)
	for i := 0; i < steps; i++ {
		w.cur = (w.cur + 1) % windowBuckets
		w.counts[w.cur] = 0
	}
	w.bucketAt = at
}

// add records one admission and its end-to-end latency.
func (w *metricsWindow) add(lat time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now()
	w.advanceLocked(now)
	w.counts[w.cur]++
	s := sample{t: now, lat: lat}
	if len(w.samples) < windowSampleCap && !w.full {
		w.samples = append(w.samples, s)
		return
	}
	w.full = true
	w.samples[w.head] = s
	w.head = (w.head + 1) % windowSampleCap
}

// Snapshot computes the current window view.
func (w *metricsWindow) Snapshot() WindowSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.now()
	w.advanceLocked(now)
	var snap WindowSnapshot
	total := 0
	for _, c := range w.counts {
		total += c
	}
	snap.PerSec = float64(total) / w.window.Seconds()
	cutoff := now.Add(-w.window)
	lats := make([]time.Duration, 0, len(w.samples))
	for _, s := range w.samples {
		if s.t.After(cutoff) {
			lats = append(lats, s.lat)
		}
	}
	snap.Samples = len(lats)
	if len(lats) == 0 {
		return snap
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	snap.P50 = lats[len(lats)/2]
	p99 := (len(lats) * 99) / 100
	if p99 >= len(lats) {
		p99 = len(lats) - 1
	}
	snap.P99 = lats[p99]
	return snap
}
