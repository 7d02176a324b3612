package main

import (
	"bytes"
	"strings"
	"testing"
)

func experimentsRun(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

type dispatchRow struct {
	args   []string
	code   int
	stdout string
	stderr string
}

// checkRows runs the command on each row's arguments and checks its exit
// code and that stdout and stderr hold the row's text; a row that wants
// no stdout requires none.
func checkRows(t *testing.T, rows []dispatchRow) {
	t.Helper()
	for _, tc := range rows {
		code, stdout, stderr := experimentsRun(tc.args...)
		if code != tc.code {
			t.Errorf("experiments %v: exit %d, want %d\n%s%s", tc.args, code, tc.code, stdout, stderr)
		}
		if !strings.Contains(stdout, tc.stdout) || (tc.stdout == "") != (stdout == "") {
			t.Errorf("experiments %v: stdout lacks %q:\n%s", tc.args, tc.stdout, stdout)
		}
		if !strings.Contains(stderr, tc.stderr) {
			t.Errorf("experiments %v: stderr lacks %q:\n%s", tc.args, tc.stderr, stderr)
		}
	}
}

// TestRunDispatch runs the fast selectors, which must print their
// section headers (the full sweeps are covered by the experiments
// package and the benchmarks), and -list.
func TestRunDispatch(t *testing.T) {
	checkRows(t, []dispatchRow{
		{[]string{"-e", "fig1"}, 0, "E1 / Figure 1", ""},
		{[]string{"-e", "table1"}, 0, "E2 / Table 1", ""},
		{[]string{"-e", "fig2"}, 0, "E3 / Figure 2", ""},
		{[]string{"-e", "table2"}, 0, "E4 / Table 2", ""},
		{[]string{"-e", "fig3"}, 0, "E5 / Figure 3", ""},
		{[]string{"-list"}, 0, "runtime-vs-designtime\nscaling\ntable1\ntable2\nvalidate\n", ""},
	})
}

// TestRunUnknownSelector checks the refusals: an unknown selector and an
// undefined flag exit 2 and print nothing to stdout.
func TestRunUnknownSelector(t *testing.T) {
	checkRows(t, []dispatchRow{
		{[]string{"-e", "nope"}, 2, "", `unknown experiment "nope"`},
		{[]string{"-undefined"}, 2, "", "flag provided but not defined"},
	})
}

func TestRunRuntimeSelector(t *testing.T) {
	code, out, errw := experimentsRun("-e", "runtime", "-iters", "2")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errw)
	}
	if !strings.Contains(out, "E6") {
		t.Errorf("runtime output missing header:\n%s", out)
	}
}

// TestRunAllHonoursIters runs the whole registry: -e all passes -iters to
// the runtime experiment like -e runtime does.
func TestRunAllHonoursIters(t *testing.T) {
	checkRows(t, []dispatchRow{
		{[]string{"-e", "all", "-iters", "2"}, 0, "over 2 runs", ""},
	})
}
