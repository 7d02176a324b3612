package churn

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rtsm/internal/manager"
	"rtsm/internal/model"
	"rtsm/internal/workload"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/catalogue.fingerprints from the current generator")

// catalogueConfigs are the catalogues the drivers serve: the benchmark's
// (six structures, 16 region endpoint pairs of a 12×12 mesh in 3×3
// blocks, classes 60:30:10), the CI storm's and chaos smoke's (four
// structures on an 8×8 mesh in 3×3 blocks, 90:9:1), the same four on
// one endpoint pair, and the fault smoke's 64 structures on one pair.
var catalogueConfigs = []struct {
	name    string
	o       Options
	regions int
}{
	{"serve", Options{Catalogue: 6, MaxUtil: 0.12, PeriodNs: 40_000, PrioMix: "60:30:10"}, 16},
	{"storm", Options{Catalogue: 4, MaxUtil: 0.12, PeriodNs: 40_000, PrioMix: "90:9:1"}, 9},
	{"catalogue4", Options{Catalogue: 4, MaxUtil: 0.12, PeriodNs: 40_000, PrioMix: "90:9:1"}, 1},
	{"catalogue64", Options{Catalogue: 64, MaxUtil: 0.15, PeriodNs: 40_000}, 1},
}

// TestCatalogueFingerprints pins the fingerprint of every catalogue
// arrival, byte for byte, against testdata generated before arrivals
// were memoised and libraries kept their encoded bytes. An arrival's
// structure is index mod Catalogue, its endpoint pair index mod the
// region count and its class the index's slot in the weight cycle, so
// one cycle of all three reaches every (structure, region, class)
// triple an index can name; each line is one triple, and every index
// of the cycle must agree with its triple's line. (With six structures
// and 16 regions an index fixes both parities alike, so 48 of the 96
// structure-region pairs are reachable.)
func TestCatalogueFingerprints(t *testing.T) {
	path := filepath.Join("testdata", "catalogue.fingerprints")
	want := map[string]string{}
	if !*updateFingerprints {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%v (generate it with -update)", err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, fp, _ := strings.Cut(sc.Text(), " = ")
			want[k] = fp
		}
		f.Close()
	}
	var lines []string
	seen := map[string]string{}
	for _, c := range catalogueConfigs {
		w, err := ParsePrioMix(c.o.PrioMix)
		if err != nil {
			t.Fatal(err)
		}
		cycle := lcm(lcm(c.o.Catalogue, c.regions), w[0]+w[1]+w[2])
		for i := 0; i < cycle; i++ {
			app, lib := c.o.Arrival(i, c.regions)
			fp, err := manager.Fingerprint(app, lib)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s s=%d r=%d class=%s", c.name, i%c.o.Catalogue, i%c.regions, classOf(i, w))
			if prev, ok := seen[key]; ok {
				if prev != fp {
					t.Errorf("%s: arrival %d fingerprints %s, an earlier index of the triple %s", key, i, fp, prev)
				}
				continue
			}
			seen[key] = fp
			lines = append(lines, key+" = "+fp)
			if !*updateFingerprints && want[key] != fp {
				t.Errorf("%s (arrival %d): fingerprint %s, pinned %q", key, i, fp, want[key])
			}
		}
	}
	if *updateFingerprints {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) != len(lines) {
		t.Errorf("%d triples pinned, %d reached", len(want), len(lines))
	}
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// TestCatalogueArrivalsConcurrent draws arrivals 0–2 399 of the serve
// catalogue from eight goroutines at once, fingerprinting each, as the
// door's decoders and the storm do (run it with -race). Every arrival
// is its own value, with its own name and class, over the structure and
// library a fresh generator gives; renaming one renames no other.
func TestCatalogueArrivalsConcurrent(t *testing.T) {
	const n, goroutines = 2400, 8
	c := catalogueConfigs[0]
	w, _ := ParsePrioMix(c.o.PrioMix)
	got := make([][]*model.Application, goroutines)
	libs := make([][]*model.Library, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g], libs[g] = make([]*model.Application, n), make([]*model.Library, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k*7 + g*300) % n // every goroutine draws every index, in its own order
				got[g][i], libs[g][i] = c.o.Arrival(i, c.regions)
				if _, err := manager.Fingerprint(got[g][i], libs[g][i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	type entry struct {
		app *model.Application
		lib *model.Library
	}
	fresh := map[workload.SynthOptions]entry{}
	for i := 0; i < n; i++ {
		s, r := i%c.o.Catalogue, i%c.regions
		opts := workload.SynthOptions{Shape: workload.ShapeChain, Processes: 3 + s%3, Seed: int64(s),
			MaxUtil: c.o.MaxUtil, PeriodNs: c.o.PeriodNs, SrcTile: fmt.Sprintf("SRC%d", r), SinkTile: fmt.Sprintf("SINK%d", r)}
		want, ok := fresh[opts]
		if !ok {
			want.app, want.lib = workload.Synthetic(opts)
			fresh[opts] = want
		}
		prio := classOf(i, w)
		name := fmt.Sprintf("app-%d-%s", i, prio)
		for g := range got {
			app, lib := got[g][i], libs[g][i]
			if app.Name != name || app.QoS.Priority != prio {
				t.Fatalf("goroutine %d arrival %d: name %q class %v, want %q %v", g, i, app.Name, app.QoS.Priority, name, prio)
			}
			if !reflect.DeepEqual(app.Processes, want.app.Processes) || !reflect.DeepEqual(app.Channels, want.app.Channels) ||
				app.QoS.PeriodNs != want.app.QoS.PeriodNs || app.QoS.LatencyNs != want.app.QoS.LatencyNs {
				t.Fatalf("goroutine %d arrival %d: structure differs from a fresh Synthetic", g, i)
			}
			for _, p := range app.Processes {
				if !reflect.DeepEqual(lib.For(p.Name), want.lib.For(p.Name)) {
					t.Fatalf("goroutine %d arrival %d: %s's implementations differ from a fresh Synthetic", g, i, p.Name)
				}
			}
			if lib.Processes() != want.lib.Processes() {
				t.Fatalf("goroutine %d arrival %d: library covers %d processes, want %d", g, i, lib.Processes(), want.lib.Processes())
			}
		}
	}
	for i := 0; i < n; i++ {
		got[0][i].Name, got[0][i].QoS.Priority = "renamed", model.Critical
		for g := 1; g < goroutines; g++ {
			if a := got[g][i]; a.Name == "renamed" || a.QoS.Priority != classOf(i, w) {
				t.Fatalf("renaming goroutine 0's arrival %d renamed goroutine %d's: %q %v", i, g, a.Name, a.QoS.Priority)
			}
		}
	}
}

// BenchmarkCatalogueArrival is one serve-catalogue arrival as the door's
// decoder and the storm draw it: a memo hit, renamed.
func BenchmarkCatalogueArrival(b *testing.B) {
	c := catalogueConfigs[0]
	w, _ := ParsePrioMix(c.o.PrioMix)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		c.o.arrival(i%1200, c.regions, w)
	}
}
