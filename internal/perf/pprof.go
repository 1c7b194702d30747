// Standard pprof wiring shared by the CLIs (dsmbench, dsmsweep, dsmrun):
// the conventional -cpuprofile/-memprofile flags, replacing the ad-hoc
// profiling setups used while measuring earlier PRs.

package perf

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile at cpuPath and/or arranges a heap
// profile at memPath, either may be empty. The returned stop function (never
// nil) finishes both and must be called exactly once before process exit;
// the heap profile is taken at stop time, after a forced GC, so it shows
// live retained memory rather than transient garbage.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return func() error { return nil }, fmt.Errorf("perf: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return func() error { return nil }, fmt.Errorf("perf: cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				errs = append(errs, fmt.Errorf("perf: cpu profile: %w", err))
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("perf: heap profile: %w", err))
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					errs = append(errs, fmt.Errorf("perf: heap profile: %w", err))
				}
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("perf: heap profile: %w", err))
				}
			}
		}
		return errors.Join(errs...)
	}, nil
}

// SingleCellProcs pins a process that runs exactly one simulation to one P,
// unless the GOMAXPROCS environment variable says otherwise. A cell is one
// baton moved between coroutines, never two running at once: extra Ps add
// no parallelism. A coroutine switch never enters the scheduler, so a
// second P no longer costs a wake-up per handoff, only room for idle Ms and
// background work: Barnes-Hut/EC-time at paper scale simulates in 1.30 s on
// one P and 1.34 s on two (medians of four runs, 2 vCPUs), where the
// channel handoff it replaced took 1.40 and 2.04 s.
func SingleCellProcs() {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
}
