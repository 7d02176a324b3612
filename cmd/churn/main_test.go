package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func churnCmd(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestRunSmoke drives small scenarios through every mode the command
// offers; each must end with a clean ledger.
func TestRunSmoke(t *testing.T) {
	base := []string{"-apps", "60", "-mesh", "6", "-catalogue", "8"}
	with := func(extra ...string) []string { return append(base[:len(base):len(base)], extra...) }
	for _, args := range [][]string{
		base,
		with("-faultrate", "0.05"),
		with("-regionsize", "3"),
		with("-journal", filepath.Join(t.TempDir(), "run.journal")),
		with("-apps", "0"),
	} {
		code, out, errw := churnCmd(args...)
		if code != 0 {
			t.Fatalf("churn %v: exit %d\n%s%s", args, code, out, errw)
		}
		if !strings.Contains(out, "ledger clean      true") {
			t.Fatalf("churn %v: no clean ledger line:\n%s", args, out)
		}
	}
}

// TestRejectedFlagCombinations pins exit code 2 for every flag
// combination validate refuses, and for the retired flags: a stale
// script must fail loudly, not silently run something else.
func TestRejectedFlagCombinations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-faultrate", "-0.1"}, "is negative"},
		{[]string{"-priomix", "0:0:0"}, "zero total weight"},
		{[]string{"-cow=false"}, "flag provided but not defined"},
		{[]string{"-epoch=false"}, "flag provided but not defined"},
		{[]string{"-retries", "1"}, "flag provided but not defined"},
		{[]string{"-faultbias", "0.5"}, "flag provided but not defined"},
		{[]string{"-meshes", "2"}, "flag provided but not defined"},
		{[]string{"-batch", "8"}, "flag provided but not defined"},
		{[]string{"-compare"}, "flag provided but not defined"},
		{[]string{"-reuse=false"}, "flag provided but not defined"},
		{[]string{"-repair=false"}, "flag provided but not defined"},
		{[]string{"-preempt=false"}, "flag provided but not defined"},
	} {
		code, out, errw := churnCmd(tc.args...)
		if code != 2 {
			t.Errorf("churn %v: exit %d, want 2\n%s%s", tc.args, code, out, errw)
		}
		if !strings.Contains(errw, tc.want) {
			t.Errorf("churn %v: stderr lacks %q:\n%s", tc.args, tc.want, errw)
		}
	}
}
