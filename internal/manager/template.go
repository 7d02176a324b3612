package manager

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"rtsm/internal/core"
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
// mapping would avoid; every manager accepts that trade.

// Fingerprint identifies the structure of a mapping problem: everything
// Mapper.Map's outcome depends on except the platform's residual state
// and the application's display name. Two arrivals with equal
// fingerprints are interchangeable for mapping purposes.
//
// It hashes a length-prefixed binary encoding rather than reflected
// JSON: the fingerprint runs once per admission on the warm path, where
// JSON encoding used to be the single largest cost. The application's
// part (Application.AppendKey) leaves out the name and the QoS priority
// — identity is structural, not nominal, and priority orders the queue,
// not the mapping. Each process's implementations follow in declaration
// order as the library keeps them encoded (Library.Key), so a repeat
// admission with the same library copies bytes instead of walking its
// port maps. A catalogue structure encodes in about 2 KiB, so the buffer
// starts on the stack and only a larger spec grows it onto the heap.
func Fingerprint(app *model.Application, lib *model.Library) (string, error) {
	var stack [4 << 10]byte
	b := app.AppendKey(stack[:0])
	for _, p := range app.Processes {
		b = append(b, lib.Key(p.Name)...)
	}
	sum := sha256.Sum256(b)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
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
