package main

import (
	"bytes"
	"os"
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
	cpu, mem := filepath.Join(t.TempDir(), "cpu.prof"), filepath.Join(t.TempDir(), "mem.prof")
	for _, args := range [][]string{
		base,
		with("-faultrate", "0.05"),
		with("-regionsize", "3"),
		with("-journal", filepath.Join(t.TempDir(), "run.journal")),
		with("-apps", "0"),
		with("-cpuprofile", cpu, "-memprofile", mem),
	} {
		code, out, errw := churnCmd(args...)
		if code != 0 {
			t.Fatalf("churn %v: exit %d\n%s%s", args, code, out, errw)
		}
		if !strings.Contains(out, "ledger clean      true") {
			t.Fatalf("churn %v: no clean ledger line:\n%s", args, out)
		}
	}
	for _, profile := range []string{cpu, mem} {
		if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", profile, err)
		}
	}
	// A profile that cannot be written fails the run, at its start or end.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if code, out, errw := churnCmd(with(flag, filepath.Join(t.TempDir(), "no-such-dir", "p.prof"))...); code != 1 {
			t.Errorf("churn %s into a missing directory: exit %d, want 1\n%s%s", flag, code, out, errw)
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
		{[]string{"-priomix", "4611686018427387904:4611686018427387904"}, "priority mix"},
		{[]string{"-priomix", "9223372036854775807:9223372036854775807:1"}, "priority mix"},
		{[]string{"-mesh", "-3"}, "Mesh -3 is negative"},
		{[]string{"-period", "-5"}, "PeriodNs -5 is negative"},
		{[]string{"-util", "5"}, "MaxUtil 5 is outside [0, 1]"},
		{[]string{"-util", "-1"}, "MaxUtil -1 is outside [0, 1]"},
		{[]string{"-apps", "-5"}, "Apps -5 is negative"},
		{[]string{"-regionsize", "-2"}, "RegionSize -2 is negative"},
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
