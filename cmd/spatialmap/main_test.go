package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtsm/internal/workload"
)

// TestRunSmoke maps the bundle cmd/benchgen emits by default. The bundle
// comes from -in: the default, standard input, is the test binary's own.
func TestRunSmoke(t *testing.T) {
	m := workload.Hiperlan2Modes[0]
	in := filepath.Join(t.TempDir(), "bundle.json")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.NewBundle(workload.Hiperlan2(m), workload.Hiperlan2Library(m), workload.Hiperlan2Platform()).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{[]string{"-in", in}, 0, "feasible: true", ""},
		{[]string{"-in", in, "-json", "-strategy", "best", "-router", "xy", "-weighted"}, 0, `"feasible": true`, ""},
		{[]string{"-in", in, "-schedule", "-tighten"}, 0, "feasible: true", ""},
		{[]string{"-in", in, "-strategy", "worst"}, 1, "", `unknown strategy "worst"`},
		{[]string{"-in", filepath.Join(t.TempDir(), "absent")}, 1, "", "no such file"},
		{[]string{"-undefined"}, 2, "", "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("spatialmap %v: exit %d, want %d\n%s%s", tc.args, code, tc.code, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.code == 0) != (stdout.Len() > 0) {
			t.Errorf("spatialmap %v: stdout lacks %q:\n%s", tc.args, tc.stdout, &stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("spatialmap %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
	}
}
