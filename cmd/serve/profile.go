package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiled runs the command's body under the profiles -cpuprofile and
// -memprofile ask for, so a scenario is profiled as it ships: a CPU
// profile of the body into cpuPath, the heap after it into memPath; an
// empty path skips that profile. It returns the body's exit code, or 1
// when a profile cannot be written.
func profiled(cpuPath, memPath string, stderr io.Writer, body func() int) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	code := body()
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC() // the profile reports the heap as of the last collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return code
}
