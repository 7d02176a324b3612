package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// The tests run from the root of the checkout, as the benchmark does.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readManifest(t *testing.T) (manifest, []byte) {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	return mf, raw
}

// keysOf decodes a JSON object and returns its sorted key set.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestManifestContract asserts the builder contract on BENCHMARK.json:
// the limits a driver checks before it makes a single run.
func TestManifestContract(t *testing.T) {
	mf, raw := readManifest(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if got, want := keysOf(t, raw), "command,end_to_end,paths,per_layer,run_seconds,workloads"; got != want {
		t.Errorf("top-level keys %s, want exactly %s", got, want)
	}
	var lists struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &lists); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		items []json.RawMessage
		keys  string
	}{
		{"workload", lists.Workloads, "name,why"},
		{"end_to_end metric", lists.EndToEnd, "better,bound,name,unit"},
		{"per_layer metric", lists.PerLayer, "better,name,unit"},
	} {
		for i, item := range c.items {
			if got := keysOf(t, item); got != c.keys {
				t.Errorf("%s %d has keys %s, want exactly %s", c.what, i, got, c.keys)
			}
		}
	}

	if n := len(mf.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range mf.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q: too long, absolute or leaving the repo", arg)
		}
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", mf.Paths)
	}
	for _, p := range mf.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q has characters outside [A-Za-z0-9_./-]", p)
		}
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", mf.RunSeconds)
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range mf.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]manifestMetric(nil), mf.EndToEnd...), mf.PerLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range mf.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit "s" and better "lower"`)
	}

	// 4 + 22 x workloads runs, each run_seconds plus set-up and teardown
	// (up to 6 s, measured), and two builds of two minutes must fit the driver's
	// budget.
	runs := 4 + 22*len(mf.Workloads)
	if total := runs*(mf.RunSeconds+6) + 2*120; total > 3420 {
		t.Errorf("%d runs of %d s (+6 s set-up, +2 builds) need %d s, budget 3420 s", runs, mf.RunSeconds, total)
	}
}

// TestManifestMatchesCode asserts that BENCHMARK.json declares exactly
// the workloads and metrics the benchmark implements, in the same order.
func TestManifestMatchesCode(t *testing.T) {
	mf, _ := readManifest(t)
	var got []string
	for _, w := range mf.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the benchmark has %v", got, workloadNames)
	}
	if len(mf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(mf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range mf.EndToEnd {
		if want := endToEndMetrics[i]; m.Name != want[0] || m.Unit != want[1] {
			t.Errorf("end-to-end metric %d is %s [%s], implemented as %s [%s]", i, m.Name, m.Unit, want[0], want[1])
		}
	}
	if len(mf.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(mf.PerLayer), len(layerMetrics))
	}
	for i, m := range mf.PerLayer {
		if want := layerMetrics[i]; m.Name != want[0] || m.Unit != want[1] || m.Better != want[2] {
			t.Errorf("per-layer metric %d is %s [%s, %s], implemented as %v", i, m.Name, m.Unit, m.Better, want)
		}
	}
}

// TestQuickRunEmitsDeclaredMetrics drives every workload through a
// -quick run, untraced and traced — which boots the serve-equivalent
// stack, journals, recovers and replays — and requires exactly the
// declared metric set, no failed operation and no zero end-to-end value.
func TestQuickRunEmitsDeclaredMetrics(t *testing.T) {
	mf, _ := readManifest(t)
	for _, w := range mf.Workloads {
		for _, traced := range []bool{false, true} {
			info, err := runWorkload(w.Name, options{seed: 1, quick: true, trace: traced})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			res := info.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, failed %d of %d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			declared := mf.EndToEnd
			if traced {
				declared = mf.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %s, declared %s", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
