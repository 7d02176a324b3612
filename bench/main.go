// Command bench is the repository's benchmark: five workloads over the
// run-time spatial mapper and the admission service built around it,
// each run as replicated passes of one deterministic operation
// sequence, reduced with noise-robust estimators to the end-to-end
// metrics BENCHMARK.json declares, plus a traced run that times every
// layer from outside through its public functions. README.md documents
// the workloads, the metrics and the estimator.
//
// The driver's contract (one workload per invocation, result as the last
// line of standard output):
//
//	bash bench/run.sh --workload door-warm --seed 1 --seconds 12 --trace 0
//
// Without --workload every workload runs in turn; see -quick and -repeat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndMetrics lists the end-to-end metrics in the order
// BENCHMARK.json declares them: name, unit.
var endToEndMetrics = [][2]string{
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"accepted_share", "ratio"},
	{"energy_nj_per_accept", "nJ/period"},
	{"setup_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of standard output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is what results.json records beside the metrics.
type runInfo struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Ops      int    `json:"ops_per_pass"` // N
	Passes   int    `json:"passes"`       // E
	Samples  int    `json:"samples"`      // N x E
	Setups   int    `json:"setups"`
	// Speed is the median speed factor of the measured passes: multiply a
	// reported time by it to get the time as the clock saw it.
	Speed  float64   `json:"speed_factor"`
	Result runResult `json:"result"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
}

// Set-up runs at least setupRepeats times so that setup_s is a median,
// and a cheap set-up keeps repeating — up to setupMaxRepeats times or
// setupSpend in total — because a median of three 10 ms samples is noise.
const (
	setupRepeats    = 3
	setupMaxRepeats = 15
	setupSpend      = 500 * time.Millisecond
)

// runWorkload measures one workload: set-up (several times, the median
// is setup_s), replicated passes until the time budget is spent, then
// the output checks. In a traced run passes alternate untraced and
// traced, so that the tracing overhead is measured within the run.
func runWorkload(name string, o options) (runInfo, error) {
	dir, err := os.MkdirTemp(scratchRoot(), name+"-")
	if err != nil {
		return runInfo{}, err
	}
	defer os.RemoveAll(dir)
	p := params{seed: o.seed, quick: o.quick, dir: dir}
	if o.trace {
		p.tr = newTracer()
	}

	var w scenario
	var setups []float64
	failed := 0
	var spent time.Duration
	for i := 0; i < setupRepeats || (i < setupMaxRepeats && spent < setupSpend); i++ {
		if o.quick && i > 0 {
			break
		}
		if w != nil {
			n, err := w.Teardown()
			if err != nil {
				return runInfo{}, err
			}
			failed += n
		}
		if w, err = newWorkload(name, p); err != nil {
			return runInfo{}, err
		}
		// Set-up time is brought to reference speed like every other time.
		ref := refKernel()
		t0 := time.Now()
		if err := w.Setup(); err != nil {
			return runInfo{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds()/((ref+refKernel())/2/refNominalNs))
	}

	var plain, traced []passResult
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for j := 0; ; j++ {
		isTraced := o.trace && j%2 == 1
		pr, err := w.Pass(isTraced)
		if err != nil {
			return runInfo{}, fmt.Errorf("%s: pass %d: %w", name, j, err)
		}
		if isTraced {
			traced = append(traced, pr)
		} else {
			plain = append(plain, pr)
		}
		enough := len(plain) >= 2 && (!o.trace || len(traced) >= 2)
		if o.quick && enough {
			break
		}
		// Stop when the next pass would overshoot the budget by more than
		// half its length.
		if elapsed := time.Since(start); !o.quick && enough &&
			elapsed+elapsed/time.Duration(2*(j+1)) >= budget {
			break
		}
	}

	info := runInfo{Workload: name, Seed: o.seed, Traced: o.trace, Ops: len(plain[0].OpNs), Setups: len(setups)}
	res := runResult{Metrics: map[string]metric{}}
	for _, pr := range append(append([]passResult(nil), plain...), traced...) {
		res.Attempted += len(pr.OpNs)
		failed += pr.Failed
	}
	if o.trace {
		info.Passes = len(traced)
		w.Layers(p.tr)
		base, with := endToEnd(plain)["op_ms_p50"], endToEnd(traced)["op_ms_p50"]
		p.tr.set("trace.overhead_pct", 100*(with/base-1))
		for _, m := range layerMetrics {
			res.Metrics[m[0]] = metric{Value: p.tr.value(m[0]), Unit: m[1]}
		}
		if err := writeJSON("trace-"+name+".json", p.tr.spans); err != nil {
			return runInfo{}, err
		}
	} else {
		info.Passes = len(plain)
		vals := endToEnd(plain)
		vals["setup_s"] = median(setups)
		for _, m := range endToEndMetrics {
			res.Metrics[m[0]] = metric{Value: vals[m[0]], Unit: m[1]}
		}
	}
	info.Samples = info.Ops * info.Passes
	speeds := make([]float64, len(plain))
	for j, pr := range plain {
		speeds[j] = pr.Speed
	}
	info.Speed = median(speeds)
	n, err := w.Teardown()
	if err != nil {
		return runInfo{}, err
	}
	res.Failed = failed + n
	res.Correct = res.Failed == 0
	info.Result = res
	return info, nil
}

// scratchRoot is where journals and result files go: bench/out in the
// checkout, which .gitignore names.
func scratchRoot() string {
	root := filepath.Join("bench", "out")
	_ = os.MkdirAll(root, 0o755)
	return root
}

func writeJSON(name string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(scratchRoot(), name), raw, 0o644)
}

// environment describes the machine for results.json; it is context, not
// a metric. RefKernelMs is the reference kernel's time when the run
// ended (refNominalNs is what the speed factors are relative to).
type environment struct {
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	RefKernelMs float64 `json:"ref_kernel_ms"`
}

func describeEnvironment() environment {
	return environment{
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		RefKernelMs: refKernel() / 1e6,
	}
}

func printMetrics(info runInfo) {
	kind := "end-to-end"
	if info.Traced {
		kind = "per-layer"
	}
	fmt.Printf("%s  seed %d  %s  N=%d ops x E=%d passes = %d samples  failed %d/%d\n",
		info.Workload, info.Seed, kind, info.Ops, info.Passes, info.Samples, info.Result.Failed, info.Result.Attempted)
	names := make([]string, 0, len(info.Result.Metrics))
	if info.Traced {
		for _, m := range layerMetrics {
			names = append(names, m[0])
		}
	} else {
		for _, m := range endToEndMetrics {
			names = append(names, m[0])
		}
	}
	for _, n := range names {
		m := info.Result.Metrics[n]
		fmt.Printf("  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// runAll runs every workload untraced and, with trace, traced as well.
func runAll(o options) ([]runInfo, bool) {
	var infos []runInfo
	ok := true
	for _, traced := range []bool{false, true} {
		if traced && !o.trace {
			continue
		}
		for _, name := range workloadNames {
			oo := o
			oo.trace = traced
			info, err := runWorkload(name, oo)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			printMetrics(info)
			ok = ok && info.Result.Correct
			infos = append(infos, info)
		}
	}
	return infos, ok
}

// repeatAll runs the whole benchmark k times and compares each
// end-to-end metric's relative spread (max-min over median) with its
// bound in BENCHMARK.json.
func repeatAll(o options, k int) bool {
	bounds, err := manifestBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	o.trace = false
	values := map[string][]float64{} // "workload metric" -> one value per repeat
	ok := true
	for r := 0; r < k; r++ {
		infos, good := runAll(o)
		ok = ok && good
		for _, info := range infos {
			for n, m := range info.Result.Metrics {
				key := info.Workload + " " + n
				values[key] = append(values[key], m.Value)
			}
		}
	}
	keys := make([]string, 0, len(values))
	for key := range values {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	fmt.Printf("\n%-36s %12s %12s %12s %8s %6s\n", "workload metric", "min", "median", "max", "spread", "bound")
	for _, key := range keys {
		vs := values[key]
		lo, mid, hi := quantile(vs, 0), median(vs), quantile(vs, 1)
		spread := 0.0
		if mid != 0 {
			spread = (hi - lo) / mid
		}
		_, name, _ := strings.Cut(key, " ")
		verdict := ""
		if spread > bounds[name] {
			verdict = "  EXCEEDS"
			ok = false
		}
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s\n", key, lo, mid, hi, 100*spread, 100*bounds[name], verdict)
	}
	return ok
}

// manifestBounds reads the regression bound of every end-to-end metric
// from BENCHMARK.json.
func manifestBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var mf struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range mf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func main() {
	var o options
	var traceFlag int
	workloadFlag := flag.String("workload", "", "run this one workload and print its result as the last line (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long each workload measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "two short passes per workload: a smoke test, not a measurement")
	repeat := flag.Int("repeat", 0, "run the whole benchmark K times and check each metric's spread against its bound")
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite "+goldenPath+" from this run's map-cold answers")
	flag.Parse()
	o.trace = traceFlag != 0

	// The measured process uses at most two cores, so results from
	// runners with more do not drift apart.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the root of the checkout:", err)
		os.Exit(2)
	}

	switch {
	case *workloadFlag != "":
		info, err := runWorkload(*workloadFlag, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		printMetrics(info)
		line, err := json.Marshal(info.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line)) // exit 0: the line itself says whether the outputs were correct
	case *repeat > 0:
		if !repeatAll(o, *repeat) {
			os.Exit(1)
		}
	default:
		infos, ok := runAll(o)
		if err := writeJSON("results.json", struct {
			Env  environment `json:"env"`
			Runs []runInfo   `json:"runs"`
		}{describeEnvironment(), infos}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
	}
}
