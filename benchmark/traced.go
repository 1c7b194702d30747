package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/harness"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/run"
	"ecvslrc/internal/sweep"
	"ecvslrc/internal/trace"
)

// Per-layer source 2: the observed passes. The driver runs every cell of the
// workload itself — the same calls harness.RunCell makes, made one by one so
// a span can be recorded around each: pass > cell > {apps.New, harness.cache,
// run.RunWith | run.RunSeq, trace.Merged, trace.Analyze, trace.BuildProfile}.
// Spans stay in memory and are written as Chrome trace JSON when the run
// ends. A perf.Registry is attached for the run phases and, in the count
// pass, a trace.Tracer with the scheduler channel on for every cell of at
// most trace.MaxProcs processors.

// span is one timed interval.
type span struct {
	Name   string
	Parent int // index into the log; -1 for a root
	Lane   int // Chrome trace thread id
	Start  time.Duration
	End    time.Duration
}

// spanLog is the in-memory span store.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	return l.add(name, parent, 0, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// add records a span whose interval is already known (cells observed through
// sweep.Grid.Progress report their wall time when they complete).
func (l *spanLog) add(name string, parent, lane int, start, end time.Time) int {
	sp := span{Name: name, Parent: parent, Lane: lane, Start: start.Sub(l.t0)}
	if !end.IsZero() {
		sp.End = end.Sub(l.t0)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, sp)
	return len(l.spans) - 1
}

// in runs f inside a child span of parent.
func (l *spanLog) in(name string, parent int, f func()) {
	id := l.begin(name, parent)
	defer l.end(id)
	f()
}

func (l *spanLog) dur(id int) time.Duration { return l.spans[id].End - l.spans[id].Start }

// selfTimes sums, per span name over the subtree of root, each span's
// duration minus the part its child spans cover.
func (l *spanLog) selfTimes(root int) map[string]time.Duration {
	children := make([]time.Duration, len(l.spans))
	inTree := make([]bool, len(l.spans))
	for i, sp := range l.spans {
		// A parent is logged before its children, so one forward scan suffices.
		inTree[i] = i == root || (sp.Parent >= 0 && inTree[sp.Parent])
		if sp.Parent >= 0 {
			children[sp.Parent] += l.dur(i)
		}
	}
	out := map[string]time.Duration{}
	for i, sp := range l.spans {
		if inTree[i] {
			out[sp.Name] += l.dur(i) - children[i]
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace JSON ("X" complete events;
// open in chrome://tracing or ui.perfetto.dev).
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(l.spans))
	for i, sp := range l.spans {
		evs[i] = event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: sp.Lane,
			Ts: float64(sp.Start.Nanoseconds()) / 1e3, Dur: float64(l.dur(i).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": sp.Parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCounts are the exact per-layer event counts of a count pass.
type layerCounts struct {
	Wakes, Dispatches        int64
	Msgs, Bytes              int64
	LinkWaits, Retransmits   int64
	Faults, Misses, Twins    int64
	CollectWords, ApplyWords int64
	Diffs                    int64
	LockAcquires, LockRemote int64
	BarrierArrivals          int64
	Records, Untraceable     int64
}

func (lc *layerCounts) add(recs []trace.Rec) {
	lc.Records += int64(len(recs))
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case trace.EvWake:
			lc.Wakes++
		case trace.EvDispatch:
			lc.Dispatches++
		case trace.EvSend:
			lc.Msgs++
			lc.Bytes += r.C
		case trace.EvLinkWait:
			lc.LinkWaits++
		case trace.EvRetransmit:
			lc.Retransmits++
		case trace.EvFault:
			lc.Faults++
		case trace.EvMiss:
			lc.Misses++
		case trace.EvTwin:
			lc.Twins++
		case trace.EvCollect:
			lc.CollectWords += r.C
		case trace.EvApply:
			lc.ApplyWords += r.C
		case trace.EvLockAcq:
			lc.LockAcquires++
		case trace.EvLockReq:
			lc.LockRemote++
		case trace.EvBarArrive:
			lc.BarrierArrivals++
		}
	}
}

// analyzeMaxRecords caps the traces the count pass hands to trace.Analyze and
// trace.BuildProfile. Both cost ~0.4 us a record on top of the merge; the one
// 12 M-record cell (Barnes-Hut/EC-time at paper scale) would alone take the
// traced run past the driver's per-run budget. Its counts are still exact.
const analyzeMaxRecords = 1 << 20

// observer is the state of one observed pass: the span log, a perf registry
// and — in the count pass — a tracer per cell.
type observer struct {
	log      *spanLog
	reg      *perf.Registry
	variants []sweep.Variant
	root     int  // the pass span
	trace    bool // count pass: attach a tracer with the scheduler channel on
	counts   layerCounts
	analyzed int // cells whose trace went through Analyze and BuildProfile
}

// runCell is the observed counterpart of runCell in pass.go: the calls
// harness.RunCell and harness.RunSeq make, with a span around each and the
// observation layers attached. Large-scale cells get the harness's Large
// defaults (notice GC, barrier fan-in 16); the committed digest checks that
// this copy stays faithful.
func (o *observer) runCell(c cell) (res cellResult) {
	res.Cell = c
	id := o.log.begin("cell "+c.key(), o.root)
	defer func() {
		if v := recover(); v != nil {
			res.Err = fmt.Errorf("cell %s panicked: %v\n%s", c.key(), v, debug.Stack())
		}
		o.log.end(id)
		res.Wall = o.log.dur(id)
	}()

	v, ok := variantByName(o.variants, c.Variant)
	if !ok {
		res.Err = fmt.Errorf("unknown variant %q", c.Variant)
		return res
	}
	var a run.App
	o.log.in("apps.New", id, func() { a, res.Err = apps.New(c.App, c.Scale) })
	if res.Err != nil {
		return res
	}
	opts := run.Options{Perf: o.reg, Timeout: c.Timeout}
	o.log.in("harness.cache", id, func() {
		if opts.InitImage, res.Err = harness.InitImage(c.App, c.Scale); res.Err == nil {
			opts.Layout, res.Err = harness.InitLayout(c.App, c.Scale)
		}
	})
	if res.Err != nil {
		return res
	}
	if c.Seq {
		o.log.in("run.RunSeq", id, func() { res.Stats.Time, res.Err = run.RunSeqWith(a, opts) })
		return res
	}
	opts.Contention, opts.Faults, opts.Topology = v.Contention, v.Faults, v.Topology
	if c.Scale == apps.Large {
		opts.NoticeGC, opts.BarrierFanIn = true, 16
	}
	switch {
	case !o.trace:
	case c.Procs > trace.MaxProcs:
		o.counts.Untraceable++
	default:
		opts.Trace = trace.New(c.Procs)
		opts.Trace.EnableSched()
	}
	var out run.Result
	o.log.in("run.RunWith", id, func() { out, res.Err = run.RunWith(a, c.Impl, c.Procs, v.Cost, opts) })
	if res.Err != nil {
		return res
	}
	res.Stats = out.Stats
	o.counts.Diffs += out.Stats.DiffsCreated
	if opts.Trace == nil {
		return res
	}
	o.log.in("trace.Merged", id, func() { o.counts.add(opts.Trace.Merged()) })
	if opts.Trace.Len() > analyzeMaxRecords {
		return res
	}
	o.analyzed++
	meta := trace.Meta{
		App: c.App, Impl: c.Impl.String(), Scale: c.Scale.String(), NProcs: c.Procs,
		Regions: opts.Layout.Regions(), Pages: opts.Layout.Pages(),
	}
	o.log.in("trace.Analyze", id, func() { trace.Analyze(opts.Trace, meta) })
	o.log.in("trace.BuildProfile", id, func() {
		if err := trace.BuildProfile(opts.Trace, meta).CheckConservation(); err != nil {
			res.Err = err
		}
	})
	return res
}

// observedPass runs the workload's cells one after another through
// observer.runCell: the span pass without a tracer, the count pass with one.
func observedPass(prep *prepared, log *spanLog, name string, withTracer bool) (passResult, *observer) {
	o := &observer{log: log, reg: perf.New(), variants: prep.Grid.Variants, trace: withTracer}
	o.root = log.begin(name+" pass "+prep.W.Name, -1)
	p := runSerialPass(prep.W.Cells, o.runCell)
	log.end(o.root)
	return p, o
}

// observedSweep is the sweep workload's own observation: the real sweep.Run,
// watched from outside through Grid.Progress (one span per cell, on the lane
// of whichever worker slot was free) and a perf registry. sweep.occupancy and
// the sweep's cell latency percentiles come from it.
func observedSweep(prep *prepared, log *spanLog) (passResult, float64) {
	g := prep.Grid
	g.Perf = perf.New()
	root := log.begin("sweep.Run (observed)", -1)
	var mu sync.Mutex
	var busy time.Duration
	laneFree := make([]time.Time, g.Parallel)
	g.Progress = func(done, total int, label string, wall time.Duration) {
		end := time.Now()
		start := end.Add(-wall)
		mu.Lock()
		busy += wall
		lane := 0
		for i, free := range laneFree {
			if !free.After(start) {
				lane = i
				break
			}
		}
		laneFree[lane] = end
		mu.Unlock()
		log.add("cell "+label, root, 1+lane, start, end)
	}
	p := runSweepPass(prep.W.Cells, g)
	log.end(root)
	return p, busy.Seconds() / (float64(g.Parallel) * log.dur(root).Seconds())
}

// percentile returns the p-th percentile (0..100) of sorted values by linear
// interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// tailPercentile picks the highest of the usual percentiles that still has at
// least ten samples beyond it.
func tailPercentile(n int) float64 {
	tail := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			tail = p
		}
	}
	return tail
}

// measureLayers is the -trace 1 run. After a warm-up it runs the workload
// twice through the driver's own cell runner: the span pass (spans and the
// perf registry, no tracer — host time per layer boundary) and the count pass
// (plus a tracer per cell — the exact counts, and what observing costs). The
// ledger multiplies the count pass's counts with the probes' unit costs over
// the span pass's simulate time. The sweep workload is additionally watched
// through one real sweep.Run.
func measureLayers(prep *prepared, opt options, unit map[string]float64, chk *checker, stdout io.Writer) (*report, error) {
	chk.check("warm-up", prep.pass())
	log := newSpanLog()
	spans, so := observedPass(prep, log, "span", false)
	chk.check("span pass", spans)
	counted, co := observedPass(prep, log, "count", true)
	chk.check("count pass", counted)

	base, workers := spans, 1
	occupancy := 0.0
	for _, c := range spans.Cells {
		occupancy += c.Wall.Seconds() / spans.Wall.Seconds()
	}
	if prep.W.Spec != "" {
		base, occupancy = observedSweep(prep, log)
		workers = prep.Grid.Parallel
		chk.check("observed sweep", base)
	}

	rep := newReport(perLayer())
	for name, v := range unit {
		rep.set(name, v, fmt.Sprintf("first quartile of %d reps", probeReps))
	}

	// Host time: registry phases and span self times of the span pass; the
	// trace analysis spans exist only in the count pass.
	phases := so.reg.Counters()
	self, traceSelf := log.selfTimes(so.root), log.selfTimes(co.root)
	simulate := float64(phases["phase_simulate_ns"]) / 1e9
	rep.set("run.init_s", float64(phases["phase_init_ns"])/1e9, "registry phase, span pass")
	rep.set("run.simulate_s", simulate, "registry phase, span pass")
	rep.set("run.verify_s", float64(phases["phase_verify_ns"])/1e9, "registry phase, span pass")
	rep.set("apps.new_s", self["apps.New"].Seconds(), "span self time")
	rep.set("apps.seq_s", self["run.RunSeq"].Seconds(), "span self time: application compute through run.Local")
	rep.set("harness.cache_s", self["harness.cache"].Seconds(), "span self time")
	analyzed := fmt.Sprintf("span self time, count pass, %d of %d cells (traces of at most %d records)", co.analyzed, len(counted.Cells), analyzeMaxRecords)
	rep.set("trace.analyze_s", traceSelf["trace.Analyze"].Seconds(), analyzed)
	rep.set("trace.profile_s", traceSelf["trace.BuildProfile"].Seconds(), analyzed)
	rep.set("sweep.occupancy", occupancy, fmt.Sprintf("sum of cell wall / (%d workers x pass span)", workers))

	// The baseline pass (the span pass; the observed sweep.Run for the sweep
	// workload): cell latency percentiles and the Go runtime's share.
	walls := make([]float64, len(base.Cells))
	for i, c := range base.Cells {
		walls[i] = float64(c.Wall.Nanoseconds()) / 1e6
	}
	sort.Float64s(walls)
	tail := tailPercentile(len(walls))
	rep.set("harness.cell_p50_ms", percentile(walls, 50), fmt.Sprintf("n=%d", len(walls)))
	rep.set("harness.cell_tail_ms", percentile(walls, tail), fmt.Sprintf("p%g, n=%d", tail, len(walls)))
	rep.set("go.gc_cycles", float64(base.GCCycles), "per pass")
	rep.set("go.gc_pause_ms", float64(base.GCPause.Nanoseconds())/1e6, "per pass")
	rep.set("go.sys_cpu_frac", base.SysCPU.Seconds()/base.CPU.Seconds(), "sys / (user+sys)")
	rep.set("trace.overhead_ratio", counted.Wall.Seconds()/spans.Wall.Seconds(), "count pass wall / span pass wall")

	// Exact counts.
	c := co.counts
	for name, v := range map[string]int64{
		"sim.wakes": c.Wakes, "sim.dispatches": c.Dispatches,
		"fabric.msgs": c.Msgs, "fabric.bytes": c.Bytes,
		"fabric.link_waits": c.LinkWaits, "fabric.retransmits": c.Retransmits,
		"vm.faults": c.Faults, "lrc.misses": c.Misses, "wtrap.twins": c.Twins,
		"wcollect.collect_words": c.CollectWords, "wcollect.apply_words": c.ApplyWords,
		"wcollect.diffs": c.Diffs, "syncmgr.lock_acquires": c.LockAcquires,
		"syncmgr.lock_remote": c.LockRemote, "syncmgr.barrier_arrivals": c.BarrierArrivals,
		"trace.records": c.Records, "trace.cells_untraceable": c.Untraceable,
	} {
		rep.set(name, float64(v), "exact count, count pass")
	}

	for name, share := range ledger(c, unit, simulate) {
		rep.set(name, share, "count x probe unit cost / run.simulate_s")
	}

	rep.print(stdout, "per-layer metrics (probes, then the span and count passes)")
	path, err := writeSpans(log, opt.Out, prep.W.Name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "  spans: %s (%d spans)\n", path, len(log.spans))
	return rep, nil
}

// ledger is ROADMAP item 1 started from outside: each layer's share of the
// span pass's simulate phase, predicted as count x probe unit cost. Layers
// nest (a message is delivered by simulator events, a remote acquire is two
// messages), so each count is charged once, to the innermost layer that has a
// probe, and the enclosing layer's unit cost is taken net of it. What no
// outside-visible count explains — application compute, the per-word access
// path and ec's lock hooks — is the residual.
func ledger(c layerCounts, unit map[string]float64, simulateS float64) map[string]float64 {
	ns := simulateS * 1e9
	net := func(gross float64, inner ...float64) float64 {
		for _, v := range inner {
			gross -= v
		}
		if gross < 0 {
			return 0
		}
		return gross
	}
	send := unit["fabric.send_ns"]
	// A one-way send dispatches two events (the sender's sleep expiry and the
	// delivery timer) and resumes the sender once without changing goroutine.
	sendEvents := 2.0
	msgs := float64(c.Msgs)
	sim := net(float64(c.Dispatches), sendEvents*msgs)*unit["sim.schedule_ns"] +
		float64(c.Wakes)*net(unit["sim.handoff_ns"], unit["sim.schedule_ns"])
	fab := msgs * send
	remote := float64(c.LockRemote)
	locks := net(float64(c.LockAcquires), remote)*unit["syncmgr.lock_local_ns"] +
		remote*net(unit["syncmgr.lock_remote_ns"], 2*send, 2*unit["sim.handoff_ns"]) +
		float64(c.BarrierArrivals)*net(unit["syncmgr.barrier_p8_ns"]/8, 2*send, 2*unit["sim.handoff_ns"])
	trap := float64(c.Twins)*(unit["wtrap.twin_make_ns"]+unit["wtrap.compare_sparse_ns"]) +
		float64(c.Faults)*unit["vm.fault_ns"]
	collect := float64(c.CollectWords)*unit["wcollect.diff_build_ns"]/probeDiffWords +
		float64(c.ApplyWords)*unit["wcollect.diff_apply_ns"]/probeDiffWords
	// The miss probe is already net of everything but the fetch itself; its
	// request and reply are charged to the fabric above.
	miss := float64(c.Misses) * net(unit["lrc.fault_fetch_ns"], 2*send)

	out := map[string]float64{
		"ledger.sim_share":      sim / ns,
		"ledger.fabric_share":   fab / ns,
		"ledger.syncmgr_share":  locks / ns,
		"ledger.wtrap_share":    trap / ns,
		"ledger.wcollect_share": collect / ns,
		"ledger.lrc_share":      miss / ns,
	}
	residual := 1.0
	for _, v := range out {
		residual -= v
	}
	out["ledger.residual_share"] = residual
	return out
}

// writeSpans writes the span file under dir.
func writeSpans(log *spanLog, dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, log.writeChrome(path)
}
