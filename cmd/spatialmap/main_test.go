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

// TestRunSmoke maps the bundle cmd/benchgen emits by default, and one no
// mapping can serve. The bundle comes from -in: the default, standard
// input, is the test binary's own. The retired flags must fail loudly, so
// an old script does not silently map without what it asked for.
func TestRunSmoke(t *testing.T) {
	in := writeBundle(t, workload.Hiperlan2SymbolPeriodNs)
	infeasible := writeBundle(t, 1)
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{[]string{"-in", in}, 0, "feasible: true", ""},
		{[]string{"-in", in, "-json", "-strategy", "best", "-router", "xy", "-weighted"}, 0, `"feasible": true`, ""},
		{[]string{"-in", infeasible}, 2, "feasible: false", ""},
		{[]string{"-in", infeasible, "-json"}, 2, `"feasible": false`, ""},
		{[]string{"-in", in, "-schedule"}, 2, "", "flag provided but not defined: -schedule"},
		{[]string{"-in", in, "-tighten"}, 2, "", "flag provided but not defined: -tighten"},
		{[]string{"-in", in, "-strategy", "worst"}, 2, "", `unknown strategy "worst"`},
		{[]string{"-in", in, "-router", "yx"}, 2, "", `unknown router "yx"`},
		{[]string{"-in", filepath.Join(t.TempDir(), "absent")}, 1, "", "no such file"},
		{[]string{"-undefined"}, 2, "", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("spatialmap %v: exit %d, want %d\n%s%s", tc.args, code, tc.code, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.stdout == "") != (stdout.Len() == 0) {
			t.Errorf("spatialmap %v: stdout lacks %q:\n%s", tc.args, tc.stdout, &stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("spatialmap %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
	}
}
