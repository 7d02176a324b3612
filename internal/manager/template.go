package manager

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
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
// so equal structures hash equally. A catalogue structure encodes in
// about 2 KiB, so the buffer starts on the stack and only a larger spec
// grows it onto the heap.
func Fingerprint(app *model.Application, lib *model.Library) (string, error) {
	var stack [4 << 10]byte
	b := stack[:0]
	b = appendI64(b, app.QoS.PeriodNs)
	b = appendI64(b, app.QoS.LatencyNs)
	b = appendI64(b, int64(len(app.Processes)))
	for _, p := range app.Processes {
		b = appendStr(b, p.Name)
		b = appendStr(b, p.PinnedTile)
		b = appendBool(b, p.Control)
	}
	b = appendI64(b, int64(len(app.Channels)))
	for _, c := range app.Channels {
		b = appendStr(b, c.Name)
		b = appendI64(b, int64(c.Src))
		b = appendI64(b, int64(c.Dst))
		b = appendI64(b, c.TokensPerPeriod)
		b = appendI64(b, c.TokenBytes)
		b = appendStr(b, c.SrcPort)
		b = appendStr(b, c.DstPort)
	}
	for _, p := range app.Processes {
		for _, im := range lib.For(p.Name) {
			b = appendStr(b, im.Process)
			b = appendStr(b, string(im.TileType))
			b = appendPattern(b, im.WCET)
			b = appendPorts(b, im.In)
			b = appendPorts(b, im.Out)
			b = appendI64(b, int64(math.Float64bits(im.EnergyPerPeriod)))
			b = appendI64(b, im.MemBytes)
		}
	}
	sum := sha256.Sum256(b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
}

// The fingerprint's byte encoding is unambiguous: every variable-length
// field is length-prefixed, so no two distinct specs share an encoding.
// The helpers append to and return the buffer, as strconv's do, which
// lets Fingerprint's stack buffer stay on the stack.

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendI64(b, int64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendPattern(b []byte, p csdf.Pattern) []byte {
	b = appendI64(b, int64(len(p)))
	for _, v := range p {
		b = appendI64(b, v)
	}
	return b
}

func appendPorts(b []byte, m map[string]csdf.Pattern) []byte {
	var stack [8]string // spills to the heap only past eight ports
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = appendI64(b, int64(len(keys)))
	for _, k := range keys {
		b = appendStr(b, k)
		b = appendPattern(b, m[k])
	}
	return b
}

// templatePoolSize caps how many alternative placements are remembered
// per fingerprint. First-fit mappings computed at different platform
// occupancies land on different tiles, so a small pool covers the
// platform well; trying all of them is still two orders of magnitude
// cheaper than one mapper run.
const templatePoolSize = 8

// template is one remembered placement: a committed mapping and the plan
// it committed. The plan is immutable, so every hit commits this same
// value and every resident committed from the template shares it.
type template struct {
	res  *core.Result
	plan *core.Plan
}

// templateCache remembers recently committed mappings per fingerprint.
// Templates stored here are treated as immutable; commits and releases
// only read them. Per fingerprint a pool of differently placed mappings is
// kept, with a rotating start index so concurrent instances of the same
// structure spread over tiles instead of all contending for the first
// template's.
type templateCache struct {
	mu   sync.RWMutex
	m    map[string][]template
	next map[string]*uint64
}

func newTemplateCache() *templateCache {
	return &templateCache{
		m:    make(map[string][]template),
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
func (c *templateCache) get(fp string) (pool []template, start int) {
	c.mu.RLock()
	pool = c.m[fp]
	ctr := c.next[fp]
	c.mu.RUnlock()
	if len(pool) <= 1 {
		return pool, 0
	}
	return pool, int(atomic.AddUint64(ctr, 1) % uint64(len(pool)))
}

// put adds a mapping and the plan it committed to the fingerprint's pool
// unless an identically placed one is already there; the oldest entry is
// evicted past the cap. The pool slice is copy-on-write: get hands out
// the current header without copying, so the backing array must never be
// mutated in place. The stored result is a shallow copy without the
// decision trace: commit and repair only read Mapping and Energy, and a
// long-lived pool need not pin a step-2 table per template.
func (c *templateCache) put(fp string, res *core.Result, plan *core.Plan) {
	slim := *res
	slim.Trace = nil
	res = &slim
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.m[fp]
	for _, have := range pool {
		if samePlacement(have.res, res) {
			return
		}
	}
	if len(pool) >= templatePoolSize {
		pool = pool[1:]
	}
	next := make([]template, 0, len(pool)+1)
	next = append(next, pool...)
	c.m[fp] = append(next, template{res, plan})
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
