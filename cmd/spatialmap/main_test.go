package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/workload"
)

// writeBundle writes the HIPERLAN/2 bundle of the first mode, with the
// given period requirement, to a file and returns its path.
func writeBundle(t *testing.T, periodNs int64) string {
	t.Helper()
	m := workload.Hiperlan2Modes[0]
	app := workload.Hiperlan2(m)
	app.QoS.PeriodNs = periodNs
	in := filepath.Join(t.TempDir(), "bundle.json")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewBundle(app, workload.Hiperlan2Library(m), workload.Hiperlan2Platform()).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return in
}

// e4Table returns the step-2 table of the E4 experiment as the golden
// file of the experiment tables holds it.
func e4Table(t *testing.T) string {
	t.Helper()
	golden, err := os.ReadFile("../../internal/experiments/testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(golden), "\nIter\tARM1")
	if !ok {
		t.Fatal("tables.golden holds no E4 table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	return "Iter\tARM1" + table + "\n"
}

func spatialmap(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

type smokeRow struct {
	args   []string
	code   int
	stdout string
	stderr string
}

// checkRows runs spatialmap on each row's arguments and checks its exit
// code and that stdout and stderr hold the row's text; a row that wants
// no stdout requires none.
func checkRows(t *testing.T, rows []smokeRow) {
	t.Helper()
	for _, tc := range rows {
		code, stdout, stderr := spatialmap(tc.args...)
		if code != tc.code {
			t.Errorf("spatialmap %v: exit %d, want %d\n%s%s", tc.args, code, tc.code, stdout, stderr)
		}
		if !strings.Contains(stdout, tc.stdout) || (tc.stdout == "") != (stdout == "") {
			t.Errorf("spatialmap %v: stdout lacks %q:\n%s", tc.args, tc.stdout, stdout)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("spatialmap %v: stderr lacks %q:\n%s", tc.args, tc.stderr, stderr)
		}
	}
}

// TestRunSmoke maps a bundle read from a file and one no mapping can
// serve, and checks the refusals of bad flags. A file bundle comes from
// -in: the default, standard input, is the test binary's own. The
// retired flags must fail loudly, so an old script does not silently map
// without what it asked for.
func TestRunSmoke(t *testing.T) {
	in := writeBundle(t, workload.Hiperlan2SymbolPeriodNs)
	infeasible := writeBundle(t, 1)
	checkRows(t, []smokeRow{
		{[]string{"-in", in}, 0, "feasible: true", ""},
		{[]string{"-in", in, "-json", "-strategy", "best", "-router", "xy", "-weighted"}, 0, `"feasible": true`, ""},
		{[]string{"-in", infeasible}, 2, "feasible: false", ""},
		{[]string{"-in", infeasible, "-json"}, 2, `"feasible": false`, ""},
		{[]string{"-in", infeasible, "-dot"}, 2, "", "stopped before step 4"},
		{[]string{"-in", in, "-json", "-dot"}, 2, "", "-json and -dot are exclusive"},
		{[]string{"-in", in, "-schedule"}, 2, "", "flag provided but not defined: -schedule"},
		{[]string{"-in", in, "-tighten"}, 2, "", "flag provided but not defined: -tighten"},
		{[]string{"-in", in, "-strategy", "worst"}, 2, "", `unknown strategy "worst"`},
		{[]string{"-in", in, "-router", "yx"}, 2, "", `unknown router "yx"`},
		{[]string{"-in", filepath.Join(t.TempDir(), "absent")}, 1, "", "no such file"},
		{[]string{"-undefined"}, 2, "", "flag provided but not defined"},
	})
}

// TestGenSmoke generates bundles of every kind and mode and maps them,
// refuses bad generator inputs, and round-trips -out.
func TestGenSmoke(t *testing.T) {
	in := writeBundle(t, workload.Hiperlan2SymbolPeriodNs)
	rows := []smokeRow{
		{[]string{"-gen", "layered", "-procs", "6", "-mesh", "5", "-seed", "3"}, 0, "Independent check:", ""},
		{[]string{"-gen", "ring"}, 2, "", `unknown kind "ring"`},
		{[]string{"-gen", "chain", "-in", in}, 2, "", "-gen and -in are exclusive"},
		{[]string{"-gen", "chain", "-procs", "0"}, 2, "", "must be positive"},
		{[]string{"-gen", "chain", "-mesh", "0"}, 2, "", "must be positive"},
		{[]string{"-gen", "chain", "-undefined"}, 2, "", "flag provided but not defined"},
	}
	for _, kind := range []string{"chain", "forkjoin", "layered"} {
		rows = append(rows, smokeRow{[]string{"-gen", kind, "-json"}, 0, `"feasible": true`, ""})
	}
	for _, m := range workload.Hiperlan2Modes {
		rows = append(rows, smokeRow{[]string{"-gen", "hiperlan2", "-mode", m.Name, "-json"}, 0, `"feasible": true`, ""})
	}
	checkRows(t, rows)

	// -out writes the bundle it maps: the file is a bundle, mapping it
	// with -in prints the same result, and -out of a bundle read with -in
	// copies it.
	for _, gen := range [][]string{
		{"-gen", "hiperlan2", "-mode", "16QAM3/4"},
		{"-gen", "chain"},
		{"-gen", "forkjoin", "-procs", "10", "-mesh", "6", "-seed", "5"},
	} {
		file, copied := filepath.Join(t.TempDir(), "bundle.json"), filepath.Join(t.TempDir(), "copy.json")
		code, generated, stderr := spatialmap(append(gen, "-out", file, "-json")...)
		if code != 0 {
			t.Fatalf("spatialmap %v: exit %d\n%s", gen, code, stderr)
		}
		written, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := workload.ReadBundle(bytes.NewReader(written)); err != nil {
			t.Fatalf("spatialmap %v -out: not a bundle: %v", gen, err)
		}
		if _, read, _ := spatialmap("-in", file, "-out", copied, "-json"); read != generated {
			t.Errorf("spatialmap %v: -in of its -out maps to\n%s\nnot\n%s", gen, read, generated)
		}
		if again, err := os.ReadFile(copied); err != nil || !bytes.Equal(again, written) {
			t.Errorf("spatialmap -in %s -out: the copy differs (%v)", file, err)
		}
	}
}

// TestNarrateSmoke checks the HIPERLAN/2 walk-through text mode prints:
// step 2's table as E4 prints it, the simulator's check, Figure 3 as DOT,
// and the mode list an unknown mode gets.
func TestNarrateSmoke(t *testing.T) {
	checkRows(t, []smokeRow{
		{[]string{"-gen", "hiperlan2"}, 0, "Step 2 — tile assignment (Table 2):\n" + e4Table(t), ""},
		{[]string{"-gen", "hiperlan2", "-mode", "64QAM3/4"}, 0, "Independent check:", ""},
		{[]string{"-gen", "hiperlan2", "-dot"}, 0, "digraph", ""},
		{[]string{"-gen", "hiperlan2", "-mode", "nope"}, 2, "", `unknown mode "nope" (modes: BPSK1/2 BPSK3/4 QPSK1/2 QPSK3/4 16QAM9/16 16QAM3/4 64QAM3/4)`},
		{[]string{"-gen", "hiperlan2", "-undefined"}, 2, "", "flag provided but not defined"},
	})
}
