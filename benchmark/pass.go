package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/sweep"
)

// cellResult is the outcome of one cell of one pass.
type cellResult struct {
	Cell  cell
	Stats core.Stats // a sequential reference reports its time in Stats.Time
	Wall  time.Duration
	Err   error
}

// passResult is one pass over a workload's cells, in canonical order, with
// the host cost of the whole pass.
type passResult struct {
	Cells      []cellResult
	Wall       time.Duration
	CPU        time.Duration // user+sys, getrusage delta
	SysCPU     time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	GCPause    time.Duration
	PeakRSS    float64 // MiB, high-water mark of the pass
}

// settle gives every pass the same starting point: a collected heap with the
// free pages returned to the OS, and the resident-set high-water mark reset
// to what is left, so that PeakRSS is the pass's own peak and one pass's
// spike (an image-pool miss right after a collection) cannot mark the others.
func settle() {
	debug.FreeOSMemory()
	// Best effort: where the kernel refuses, PeakRSS degrades to the
	// process's lifetime high-water mark.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark from /proc.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostClock samples the host-cost counters a pass is charged with.
type hostClock struct {
	at        time.Time
	user, sys time.Duration
	mem       runtime.MemStats
}

// readHostClock reads the counters and then the clock, so a pass that starts
// here is not charged for the reading.
func readHostClock() hostClock {
	var h hostClock
	runtime.ReadMemStats(&h.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.user = time.Duration(ru.Utime.Nano())
		h.sys = time.Duration(ru.Stime.Nano())
	}
	h.at = time.Now()
	return h
}

// since fills p's host-cost fields with the deltas from h to now.
func (h hostClock) since(p *passResult) {
	now := time.Now() // before the counters are read, for the same reason
	end := readHostClock()
	p.Wall = now.Sub(h.at)
	p.CPU = (end.user - h.user) + (end.sys - h.sys)
	p.SysCPU = end.sys - h.sys
	p.Mallocs = end.mem.Mallocs - h.mem.Mallocs
	p.AllocBytes = end.mem.TotalAlloc - h.mem.TotalAlloc
	p.GCCycles = end.mem.NumGC - h.mem.NumGC
	p.GCPause = time.Duration(end.mem.PauseTotalNs - h.mem.PauseTotalNs)
	p.PeakRSS = peakRSSMiB()
}

// cellConfig is the harness configuration of a serial-workload cell on the
// timed path: the calibrated platform, and no tracer and no perf registry.
func cellConfig(c cell) harness.Config {
	return harness.Config{
		Scale: c.Scale, NProcs: c.Procs, Cost: fabric.DefaultCostModel(),
		Parallel: 1, Timeout: c.Timeout,
	}
}

// runCell executes one serial-workload cell through the harness, exactly as
// dsmrun and dsmbench do.
func runCell(c cell) cellResult {
	cfg := cellConfig(c)
	res := cellResult{Cell: c}
	t0 := time.Now()
	if c.Seq {
		t, err := harness.RunSeq(cfg, c.App)
		res.Stats.Time, res.Err = t, err
	} else {
		row := harness.RunCell(cfg, c.App, c.Impl)
		res.Stats, res.Err = row.Stats, row.Err
	}
	res.Wall = time.Since(t0)
	return res
}

// runSerialPass runs the cells one after another, in list order: the order
// decides which recycled images and how much garbage a cell starts with, so
// a fixed order is what makes the allocation and memory metrics repeat.
func runSerialPass(cells []cell, run func(cell) cellResult) passResult {
	p := passResult{Cells: make([]cellResult, len(cells))}
	settle()
	h := readHostClock()
	for i, c := range cells {
		p.Cells[i] = run(c)
	}
	h.since(&p)
	return p
}

// runSweepPass runs the sweep workload's grid through one sweep.Run call and
// maps the records back onto the canonical cell list. Per-cell wall times
// come from Grid.Progress; a cell that produced no record failed.
func runSweepPass(cells []cell, g sweep.Grid) passResult {
	p := passResult{Cells: make([]cellResult, len(cells))}
	index := make(map[string]int, len(cells))
	for i, c := range cells {
		p.Cells[i] = cellResult{Cell: c, Err: fmt.Errorf("no record")}
		index[sweepLabel(c)] = i
	}
	var mu sync.Mutex
	prev := g.Progress
	g.Progress = func(done, total int, label string, wall time.Duration) {
		mu.Lock()
		if i, ok := index[label]; ok {
			p.Cells[i].Wall = wall
		}
		mu.Unlock()
		if prev != nil {
			prev(done, total, label, wall)
		}
	}
	settle()
	h := readHostClock()
	recs, err := sweep.Run(g)
	h.since(&p)
	for _, r := range recs {
		if i, ok := index[fmt.Sprintf("%s/%s/%s/%d", r.Variant, r.App, r.Impl, r.NProcs)]; ok {
			p.Cells[i].Stats, p.Cells[i].Err = r.Stats, nil
		}
	}
	if err != nil {
		if cf, ok := err.(*sweep.CellFailures); ok {
			attachSweepErrors(&p, cf)
		} else {
			for i := range p.Cells {
				p.Cells[i].Err = err
			}
		}
	}
	return p
}

// sweepLabel is the cell's label in sweep.Run's progress stream.
func sweepLabel(c cell) string {
	return fmt.Sprintf("%s/%s/%v/%d", c.Variant, c.App, c.Impl, c.Procs)
}

// attachSweepErrors gives the record-less cells the sweep's failure text, so
// the report names what went wrong rather than just "no record".
func attachSweepErrors(p *passResult, cf *sweep.CellFailures) {
	k := 0
	for i := range p.Cells {
		if p.Cells[i].Err != nil && k < len(cf.Errs) {
			p.Cells[i].Err = cf.Errs[k]
			k++
		}
	}
}
