package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Noise on a shared runner only ever slows a replica down, so a time
// measured over replicas of identical work is estimated by the lower
// quartile; a count is estimated by the median.
func lowerQuartile(vs []float64) float64 { return quantile(vs, 0.25) }
func median(vs []float64) float64        { return quantile(vs, 0.5) }

// passResult is what one pass of a workload measured.
type passResult struct {
	OpNs     []float64 // per-operation latency, indexed by operation
	WallNs   float64
	CPUNs    float64
	Mallocs  float64
	AllocB   float64
	Accepted int
	Failed   int
	Energy   float64 // summed over accepted operations
	// Speed is the machine's speed factor around the pass: the reference
	// kernel's time over refNominalNs. 1.3 means the machine ran the
	// kernel 30 % slower than the reference machine does.
	Speed float64
}

// The shared runner drifts between regimes: for tens of seconds at a
// time everything that allocates runs 15-35 % slower, with no steal
// time reported, so no estimator inside one run can see past it. Each
// pass is therefore bracketed by a reference kernel — benchmark-owned
// work that allocates, links and chases about 1 MiB of small objects,
// as the program's hot paths do — and the pass's times are divided by
// how much slower than refNominalNs the kernel ran. Times are thus
// reported at reference speed. In sizing this cut the range of map-cold's
// pass time over a 4-minute run from 35 % to 11 %.
const (
	refNominalNs = 550e3 // the kernel's time on the sizing runner when quiet
	refReps      = 6
	refNodes     = 1 << 14
)

type refNode struct {
	next *refNode
	val  [5]int
}

var refSink int // keeps the kernel's result alive

// refKernel times the reference kernel: the lower quartile of refReps
// repetitions. It runs with the collector off, right after a collection,
// so the program's heap cannot slow it down.
func refKernel() float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ds := make([]float64, refReps)
	for r := range ds {
		t0 := time.Now()
		nodes := make([]*refNode, refNodes)
		for i := range nodes {
			nodes[i] = &refNode{val: [5]int{i}}
		}
		x := 12345
		for i := range nodes {
			x = x*1103515245 + 12345
			nodes[i].next = nodes[(x>>8)&(refNodes-1)]
		}
		seen := make(map[int]*refNode, 256)
		p := nodes[0]
		for i := 0; i < 4*refNodes; i++ {
			p = p.next
			if i&63 == 0 {
				seen[p.val[0]&1023] = p
			}
		}
		refSink += len(seen) + p.val[0]
		ds[r] = float64(time.Since(t0))
	}
	return lowerQuartile(ds)
}

// meter brackets a pass: reference kernel, then wall clock, process CPU
// time and heap allocation counters. The MemStats reads stop the world
// and the kernel allocates, so they sit outside the timed bracket, and
// every replica starts from a collected heap.
type meter struct {
	ms   runtime.MemStats
	cpu  time.Duration
	wall time.Time
	ref  float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) start() {
	m.ref = refKernel()
	runtime.GC()
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.wall = time.Now()
}

func (m *meter) stop(p *passResult) {
	p.WallNs = float64(time.Since(m.wall))
	p.CPUNs = float64(cpuTime() - m.cpu)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.Mallocs = float64(after.Mallocs - m.ms.Mallocs)
	p.AllocB = float64(after.TotalAlloc - m.ms.TotalAlloc)
	p.Speed = (m.ref + refKernel()) / 2 / refNominalNs
}

// endToEnd reduces the replicated passes of one workload to the
// end-to-end metrics (setup_s is added by the caller). Every time is
// first brought to reference speed with its pass's factor. Per-operation
// time is then the lower quartile over the replicas of that operation;
// p50 and p99 are percentiles over operation indices, so they describe
// the spread across kinds of operation, not across machine hiccups.
func endToEnd(passes []passResult) map[string]float64 {
	n := len(passes[0].OpNs)
	perOp := make([]float64, n)
	replicas := make([]float64, len(passes))
	for i := 0; i < n; i++ {
		for j, p := range passes {
			replicas[j] = p.OpNs[i] / p.Speed
		}
		perOp[i] = lowerQuartile(replicas)
	}
	col := func(f func(passResult) float64) []float64 {
		out := make([]float64, len(passes))
		for j, p := range passes {
			out[j] = f(p)
		}
		return out
	}
	ops := float64(n)
	accepted := median(col(func(p passResult) float64 { return float64(p.Accepted) }))
	energy := 0.0
	if accepted > 0 {
		energy = median(col(func(p passResult) float64 {
			if p.Accepted == 0 {
				return 0
			}
			return p.Energy / float64(p.Accepted)
		}))
	}
	return map[string]float64{
		"op_ms_p50":            quantile(perOp, 0.50) / 1e6,
		"op_ms_p99":            quantile(perOp, 0.99) / 1e6,
		"ops_per_s":            ops / (lowerQuartile(col(func(p passResult) float64 { return p.WallNs / p.Speed })) / 1e9),
		"cpu_ms_per_op":        lowerQuartile(col(func(p passResult) float64 { return p.CPUNs / p.Speed })) / ops / 1e6,
		"allocs_per_op":        median(col(func(p passResult) float64 { return p.Mallocs })) / ops,
		"alloc_kb_per_op":      median(col(func(p passResult) float64 { return p.AllocB })) / ops / 1024,
		"accepted_share":       accepted / ops,
		"energy_nj_per_accept": energy,
	}
}
