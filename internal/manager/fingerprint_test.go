package manager_test

import (
	"testing"

	"rtsm/internal/arch"
	"rtsm/internal/churn"
	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

// TestFingerprintAfterLibraryAdd: a library keeps its processes' encoded
// implementations once a fingerprint has read them, and Add drops them,
// so an implementation added after an admission changes the fingerprint
// to exactly what a fresh library with the same implementations gives.
func TestFingerprintAfterLibraryAdd(t *testing.T) {
	opts := workload.SynthOptions{Shape: workload.ShapeChain, Processes: 4, Seed: 7, MaxUtil: 0.2}
	app, lib := workload.Synthetic(opts)
	before, err := manager.Fingerprint(app, lib)
	if err != nil {
		t.Fatal(err)
	}
	add := func(lib *model.Library) {
		p := app.MappableProcesses()[1].Name
		im := *lib.For(p)[0]
		im.TileType, im.MemBytes = arch.TypeARM, im.MemBytes+64
		lib.Add(&im)
	}
	add(lib)
	after, err := manager.Fingerprint(app, lib)
	if err != nil {
		t.Fatal(err)
	}
	freshApp, fresh := workload.Synthetic(opts)
	add(fresh)
	want, err := manager.Fingerprint(freshApp, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatalf("fingerprint %s did not change when an implementation was added", after)
	}
	if after != want {
		t.Fatalf("fingerprint after Add %s, a fresh library with the same implementations gives %s", after, want)
	}
}

// BenchmarkFingerprint is a template hit's identity: one serve-catalogue
// arrival, whose library keeps its encoded implementations after the
// first call.
func BenchmarkFingerprint(b *testing.B) {
	app, lib := churn.Options{Catalogue: 6, MaxUtil: 0.12, PeriodNs: 40_000, PrioMix: "60:30:10"}.Arrival(5, 16)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := manager.Fingerprint(app, lib); err != nil {
			b.Fatal(err)
		}
	}
}
