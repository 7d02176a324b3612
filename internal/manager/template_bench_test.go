package manager

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/model"
)

// fullTemplatePool returns a cache with one fingerprint's pool filled to
// capacity, the worst case for the rotation.
func fullTemplatePool() (*templateCache, string) {
	tc := newTemplateCache()
	const fp = "bench-fp"
	for i := 0; i < templatePoolSize; i++ {
		tc.put(fp, &core.Result{Mapping: &core.Mapping{
			Tile: map[model.ProcessID]arch.TileID{0: arch.TileID(i)},
		}}, nil)
	}
	return tc, fp
}

// TestTemplateGetZeroAlloc pins the satellite claim: handing out a full
// pool with its rotation offset allocates nothing — get returns the
// cache's own copy-on-write header plus an index instead of building a
// rotated copy per lookup.
func TestTemplateGetZeroAlloc(t *testing.T) {
	tc, fp := fullTemplatePool()
	allocs := testing.AllocsPerRun(1000, func() {
		pool, start := tc.get(fp)
		if len(pool) != templatePoolSize || start < 0 || start >= len(pool) {
			t.Fatalf("bad pool/start: %d/%d", len(pool), start)
		}
	})
	if allocs != 0 {
		t.Fatalf("templateCache.get allocates %v objects per lookup, want 0", allocs)
	}
}

// TestTemplateGetRotates: successive lookups spread start indices over
// the whole pool, so concurrent instances of one structure do not all
// fight for the same first template.
func TestTemplateGetRotates(t *testing.T) {
	tc, fp := fullTemplatePool()
	seen := make(map[int]bool)
	for i := 0; i < 4*templatePoolSize; i++ {
		_, start := tc.get(fp)
		seen[start] = true
	}
	if len(seen) != templatePoolSize {
		t.Fatalf("rotation visited %d of %d start indices", len(seen), templatePoolSize)
	}
}

// BenchmarkTemplateGet measures the template-pool lookup on the
// admission fast path; run with -benchmem, the acceptance claim is
// 0 B/op, 0 allocs/op.
func BenchmarkTemplateGet(b *testing.B) {
	tc, fp := fullTemplatePool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, start := tc.get(fp)
		if pool[start%len(pool)].res == nil {
			b.Fatal("nil template")
		}
	}
}

// BenchmarkTemplateGetParallel is the contended variant: many admission
// workers rotating through one hot fingerprint.
func BenchmarkTemplateGetParallel(b *testing.B) {
	tc, fp := fullTemplatePool()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			pool, start := tc.get(fp)
			if pool[start%len(pool)].res == nil {
				b.Fatal("nil template")
			}
		}
	})
}
