package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rtsm/internal/workload"
)

func TestFig1ContainsAllEdges(t *testing.T) {
	out := Fig1()
	for _, want := range []string{"A/D", "Pfx.rem.", "Frq.off.", "Inv.OFDM", "Rem.", "Sink", "CTRL", "80", "64", "52"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestTable1ShowsPaperPatterns(t *testing.T) {
	out := Table1(DefaultMode)
	for _, want := range []string{"⟨18^18⟩", "⟨1^64, 170, 1^52⟩", "275", "143", "MONTIUM", "ARM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable2MatchesPaperCosts(t *testing.T) {
	out, res, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Initial (greedy) assignment", "Improvement, keep", "No improvement, revert"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	costs := []float64{11, 11, 9, 7}
	for i, w := range costs {
		if res.Trace.Step2[i].Cost != w {
			t.Errorf("cost[%d] = %v, want %v", i, res.Trace.Step2[i].Cost, w)
		}
	}
}

func TestFig3ReportsBuffers(t *testing.T) {
	out, res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("worked example infeasible")
	}
	if !strings.Contains(out, "B(A/D→Pfx.rem.)") || !strings.Contains(out, "feasible=true") {
		t.Errorf("Fig3 incomplete:\n%s", out)
	}
}

func TestMapperRuntimeShape(t *testing.T) {
	rep, err := MapperRuntime(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanPerMap <= 0 || rep.MinPerMap > rep.MaxPerMap {
		t.Errorf("nonsensical runtime report: %+v", rep)
	}
}

func TestRuntimeVsDesignTimeClaims(t *testing.T) {
	rows, out, err := RuntimeVsDesignTime()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 modes", len(rows))
	}
	for _, r := range rows {
		if r.RunTime > r.DesignTime+1e-9 {
			t.Errorf("%s: run-time (%v) worse than design-time (%v)", r.Mode, r.RunTime, r.DesignTime)
		}
	}
	// The occupancy scenario must show the frozen mapping rejected and
	// the run-time mapping admitted.
	if !strings.Contains(out, "REJECTED") || !strings.Contains(out, "admitted at") {
		t.Errorf("occupancy scenario missing from report:\n%s", out)
	}
}

func TestQualityGapsNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("exact solver sweep")
	}
	rows, _, err := Quality(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no solvable instances")
	}
	for _, r := range rows {
		// The heuristic can never beat the optimum under the shared
		// objective (tiny float slack for the -0.0% rendering case).
		if r.GapPct < -1e-6 {
			t.Errorf("seed %d: heuristic below optimum by %v%%", r.Seed, -r.GapPct)
		}
	}
}

func TestAblationDefaultsBeatBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation sweep")
	}
	rows, _, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]AblationRow)
	for _, r := range rows {
		byName[r.Name] = r
	}
	def, ok := byName["paper default (desirability + first-improvement + sorted routing)"]
	if !ok {
		t.Fatal("default row missing")
	}
	for name, r := range byName {
		if !strings.Contains(name, "baseline") || r.SynthFeasible == 0 {
			continue
		}
		if r.SynthEnergy < def.SynthEnergy-1e-9 {
			t.Errorf("%s (%.1f) beat the paper default (%.1f) on synthetics",
				name, r.SynthEnergy, def.SynthEnergy)
		}
	}
	greedy := byName["no local search (greedy only)"]
	if greedy.SynthEnergy <= def.SynthEnergy {
		t.Errorf("local search bought nothing: greedy %.1f vs default %.1f",
			greedy.SynthEnergy, def.SynthEnergy)
	}
}

func TestAdmissionMonotoneInPlatformSize(t *testing.T) {
	if testing.Short() {
		t.Skip("admission sweep")
	}
	rows, _, err := Admission()
	if err != nil {
		t.Fatal(err)
	}
	perMesh := make(map[int]int)
	for _, r := range rows {
		if r.Config == "paper default" {
			perMesh[r.Mesh] = r.Admitted
		}
	}
	if perMesh[6] < perMesh[4] {
		t.Errorf("bigger platform admitted fewer applications: %v", perMesh)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/tables.golden from the current mapper and engine")

// wallClock matches a rendered time.Duration, the only thing in a table
// that differs from run to run.
var wallClock = regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)

// TestTablesGolden pins the rendered E1–E12 reports to a committed file,
// byte for byte: the buffer sizes in Fig3, the capacities behind
// Ablation and the simulated periods in ValidateAll all come out of the
// step-4 engine, so a change to the mapper or the engine must leave the
// file untouched. E6 is only timings and is left out; E9's mean-time
// column is blanked. Regenerate for an intended fidelity change with
// `go test ./internal/experiments -run Golden -update`.
func TestTablesGolden(t *testing.T) {
	var got strings.Builder
	add := func(report string, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(report)
		got.WriteString("\n" + strings.Repeat("─", 72) + "\n\n")
	}
	add(Fig1(), nil)
	for _, mode := range workload.Hiperlan2Modes {
		add(Table1(mode), nil)
	}
	add(Fig2(), nil)
	t2, _, err := Table2()
	add(t2, err)
	f3, _, err := Fig3()
	add(f3, err)
	_, e7, err := RuntimeVsDesignTime()
	add(e7, err)
	_, e8, err := Quality(10)
	add(e8, err)
	_, e9, err := Scaling()
	// Blanking changes the column's width, so the padding goes too.
	var e9Blank strings.Builder
	for _, line := range strings.Split(wallClock.ReplaceAllString(e9, "-"), "\n") {
		e9Blank.WriteString(strings.Join(strings.Fields(line), " ") + "\n")
	}
	add(e9Blank.String(), err)
	_, e10, err := Ablation()
	add(e10, err)
	e11, err := ValidateAll()
	add(e11, err)
	_, e12, err := Admission()
	add(e12, err)

	golden := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("the rendered experiment tables differ from %s at line %d:\n got %q\nwant %q", golden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("the rendered experiment tables have %d lines, %s has %d", len(gotLines), golden, len(wantLines))
}
