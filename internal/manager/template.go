package manager

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"rtsm/internal/core"
	"rtsm/internal/csdf"
	"rtsm/internal/model"
)

// Mapping reuse: an online manager sees the same application structures
// over and over — the paper's own case study is a receiver that restarts
// whenever the radio re-tunes. Recomputing the four-step mapping for a
// structurally identical arrival is pure waste when the previous mapping
// still fits, and the transactional commit path makes reuse safe: a
// remembered mapping is re-validated against the live platform exactly
// like a speculatively computed one, so a stale template can only be
// rejected, never corrupt the ledger. On a template hit an admission
// costs one validate-and-apply (tens of microseconds) instead of a full
// mapping run (milliseconds); on validation failure the admission falls
// back to the normal snapshot-map-commit path and refreshes the template.
//
// Reuse trades mapping optimality for admission latency: a template
// computed against a different residual state may power tiles a fresh
// mapping would avoid. Managers therefore default to reuse off; enable
// it with SetMappingReuse for throughput-oriented deployments.

// Fingerprint identifies the structure of a mapping problem: everything
// Mapper.Map's outcome depends on except the platform's residual state
// and the application's display name. Two arrivals with equal
// fingerprints are interchangeable for mapping purposes.
//
// The encoding is a hand-rolled length-prefixed binary walk of the spec
// rather than reflected JSON: the fingerprint runs once per admission on
// the warm path, where JSON encoding used to be the single largest cost.
// The name and the QoS priority are excluded — identity is structural,
// not nominal, and priority orders the queue, not the mapping.
// Implementations are visited in process declaration order and library
// registration order, both part of the mapping's semantics (they encode
// the paper's tie-breaking); port maps are visited in sorted-key order
// so equal structures hash equally.
func Fingerprint(app *model.Application, lib *model.Library) (string, error) {
	e := fpEncoder{buf: make([]byte, 0, 1024)}
	e.i64(app.QoS.PeriodNs)
	e.i64(app.QoS.LatencyNs)
	e.i64(int64(len(app.Processes)))
	for _, p := range app.Processes {
		e.str(p.Name)
		e.str(p.PinnedTile)
		e.bool(p.Control)
	}
	e.i64(int64(len(app.Channels)))
	for _, c := range app.Channels {
		e.str(c.Name)
		e.i64(int64(c.Src))
		e.i64(int64(c.Dst))
		e.i64(c.TokensPerPeriod)
		e.i64(c.TokenBytes)
		e.str(c.SrcPort)
		e.str(c.DstPort)
	}
	for _, p := range app.Processes {
		for _, im := range lib.For(p.Name) {
			e.str(im.Process)
			e.str(string(im.TileType))
			e.pattern(im.WCET)
			e.ports(im.In)
			e.ports(im.Out)
			e.f64(im.EnergyPerPeriod)
			e.i64(im.MemBytes)
		}
	}
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:]), nil
}

// fpEncoder accumulates the fingerprint's unambiguous byte encoding:
// every variable-length field is length-prefixed, so no two distinct
// specs share an encoding.
type fpEncoder struct {
	buf []byte
}

func (e *fpEncoder) i64(v int64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
}

func (e *fpEncoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *fpEncoder) str(s string) {
	e.i64(int64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *fpEncoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *fpEncoder) pattern(p csdf.Pattern) {
	e.i64(int64(len(p)))
	for _, v := range p {
		e.i64(v)
	}
}

func (e *fpEncoder) ports(m map[string]csdf.Pattern) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.i64(int64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.pattern(m[k])
	}
}

// templatePoolSize caps how many alternative placements are remembered
// per fingerprint. First-fit mappings computed at different platform
// occupancies land on different tiles, so a small pool covers the
// platform well; trying all of them is still two orders of magnitude
// cheaper than one mapper run.
const templatePoolSize = 8

// templateCache remembers recently committed mappings per fingerprint.
// Results stored here are treated as immutable; Apply and Remove only
// read them. Per fingerprint a pool of differently placed mappings is
// kept, with a rotating start index so concurrent instances of the same
// structure spread over tiles instead of all contending for the first
// template's.
type templateCache struct {
	mu   sync.RWMutex
	m    map[string][]*core.Result
	next map[string]*uint64
}

func newTemplateCache() *templateCache {
	return &templateCache{
		m:    make(map[string][]*core.Result),
		next: make(map[string]*uint64),
	}
}

// get returns the pool for a fingerprint and the index to start trying
// templates from; successive callers get successive start indices, so
// concurrent instances of the same structure spread over tiles instead
// of all contending for the first template's. Callers iterate the pool
// as pool[(start+k) % len(pool)] for k = 0..len-1. The returned slice is
// the cache's own copy-on-write header: it must not be modified, and
// handing it out allocation-free is what keeps a warm template hit off
// the heap entirely (pinned by BenchmarkTemplateGet).
func (c *templateCache) get(fp string) (pool []*core.Result, start int) {
	c.mu.RLock()
	pool = c.m[fp]
	ctr := c.next[fp]
	c.mu.RUnlock()
	if len(pool) <= 1 {
		return pool, 0
	}
	return pool, int(atomic.AddUint64(ctr, 1) % uint64(len(pool)))
}

// put adds a mapping to the fingerprint's pool unless an identically
// placed one is already there; the oldest entry is evicted past the cap.
// The pool slice is copy-on-write: get hands out the current header
// without copying, so the backing array must never be mutated in place.
// The stored result is a shallow copy with the working-platform clone and
// the trace stripped: commit and repair only read Mapping and Energy, and
// a long-lived pool must not pin a mesh copy per template.
func (c *templateCache) put(fp string, res *core.Result) {
	slim := *res
	slim.Platform = nil
	slim.Trace = nil
	res = &slim
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.m[fp]
	for _, have := range pool {
		if samePlacement(have, res) {
			return
		}
	}
	if len(pool) >= templatePoolSize {
		pool = pool[1:]
	}
	next := make([]*core.Result, 0, len(pool)+1)
	next = append(next, pool...)
	c.m[fp] = append(next, res)
	if c.next[fp] == nil {
		c.next[fp] = new(uint64)
	}
}

// samePlacement reports whether two results place processes on the same
// tiles — the only dimension the pool needs diversity in.
func samePlacement(a, b *core.Result) bool {
	at, bt := a.Mapping.Tile, b.Mapping.Tile
	if len(at) != len(bt) {
		return false
	}
	for pid, tid := range at {
		if bt[pid] != tid {
			return false
		}
	}
	return true
}
