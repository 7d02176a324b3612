package manager

import (
	"sync"
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/core"
	"rtsm/internal/model"
)

// TestTemplateCachePoolEvictionRace hammers one fingerprint's pool past
// its capacity from concurrent writers while readers rotate through it
// (run with -race): put must be copy-on-write so a header handed out by
// get never has its backing array mutated underneath the reader.
func TestTemplateCachePoolEvictionRace(t *testing.T) {
	tc := newTemplateCache()
	placement := func(n int) *core.Result {
		return &core.Result{Mapping: &core.Mapping{
			Tile: map[model.ProcessID]arch.TileID{0: arch.TileID(n)},
		}}
	}
	const fp = "fp"
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*templatePoolSize; i++ {
				tc.put(fp, placement(w*1000+i), nil)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 8*templatePoolSize; i++ {
				pool, start := tc.get(fp)
				for k := 0; k < len(pool); k++ {
					if res := pool[(start+k)%len(pool)].res; res == nil || res.Mapping == nil {
						t.Error("torn pool entry observed")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if pool, _ := tc.get(fp); len(pool) != templatePoolSize {
		t.Fatalf("pool size = %d, want %d after saturation", len(pool), templatePoolSize)
	}
}
