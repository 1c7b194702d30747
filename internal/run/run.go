// Package run executes applications on a simulated DSM cluster: it lays out
// shared memory, spawns one protocol node per processor, runs the program,
// aggregates the paper's statistics, and verifies the computed result.
package run

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/ec"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/lrc"
	"ecvslrc/internal/mem"
	"ecvslrc/internal/perf"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// App is a DSM application. One App value describes one problem instance;
// the same instance can be run sequentially and on any implementation, and
// Verify checks the final shared memory against the app's own sequential
// reference.
type App interface {
	// Name identifies the application (e.g. "SOR", "QS").
	Name() string
	// Layout allocates the shared regions.
	Layout(al *mem.Allocator)
	// Init populates the initial shared memory contents. It runs before the
	// processors start; every processor begins with this image (process
	// creation is not part of the timed region in the paper). Init only
	// writes the image and keeps no instance state, so the run skips it
	// when handed a cached image (Options.InitImage).
	Init(im *mem.Image)
	// Program is the per-processor program. It must call d.StatsEnd() after
	// its final barrier; processor 0 must then gather the results through
	// the DSM (read locks under EC, page faults under LRC) so Verify can
	// inspect its image.
	Program(d core.DSM)
	// Verify checks processor 0's final image.
	Verify(im *mem.Image) error
}

// Machine is the shape of the simulated machine beyond its cost model — the
// one declaration of these options. run.Options, harness.Config and
// sweep.Variant embed it, the CLIs bind their flags onto it (internal/cmdline),
// and Options.Validate is its only validator. The zero value is the paper's
// machine: flat contention-free link, no faults, flat barriers, no GC.
type Machine struct {
	// Contention enables shared-link contention in the fabric: concurrent
	// bulk transfers queue on the ATM path instead of overlapping for free.
	// Off reproduces the calibrated model bit-exactly.
	Contention bool
	// Faults, when non-nil, runs the fabric under the seeded fault plan with
	// the reliable-delivery sublayer enabled (fabric.EnableFaults): messages
	// are dropped, duplicated and delayed per the plan, and recovered via
	// sequence numbers, acks and retransmission — all in virtual time, so
	// the recovery cost lands in the run's statistics. Nil reproduces the
	// fault-free fabric bit-exactly.
	Faults *fabric.FaultPlan
	// Topology, when non-nil, replaces the fabric's flat shared link with a
	// folded-Clos switch model: per-level latency (level x WireLatency) and
	// per-level contention capacity (fabric.Topology). Nil is the flat link,
	// the one-stage Clos whose radix and taper cover the machine, which
	// reproduces the calibrated fabric bit-exactly. Mutually exclusive with
	// Faults: the reliable sublayer's retransmission timing is calibrated
	// against the flat link.
	Topology *fabric.Topology
	// BarrierFanIn selects the barrier communication shape: 0 picks the
	// default (flat fan-in, every processor messaging the manager;
	// harness.Options resolves it to 16 at apps.Large), 1 forces flat, and
	// r >= 2 arranges the processors into an implicit radix-r tree rooted at
	// the manager, making barrier traffic at any one node O(r + log n)
	// instead of O(n). Tree fan-in changes the message pattern (and therefore
	// Stats), so it is off at the golden-pinned scales; equivalence of the
	// final memory images is pinned by TestTreeBarrierEquivalence.
	BarrierFanIn int
	// NoticeGC enables LRC notice-history garbage collection at barrier
	// quiescent points (internal/lrc's GC). Collection is provably invisible
	// to the protocol: core.Stats and final memory images are identical with
	// it on or off (TestNoticeGCEquivalence pins this); only host memory
	// changes. Ignored for EC implementations. Off by default at the
	// golden-pinned scales; harness.Options turns it on at apps.Large, where
	// an uncollected run holds O(intervals x procs) history per node.
	NoticeGC bool
}

// Options tunes one run beyond the cost model.
type Options struct {
	Machine
	// InitImage, when non-nil, is a pre-seeded initial image for this exact
	// application instance (same name, same scale), typically from the
	// harness's per-(app, scale) cache; the run then skips Init. Ownership
	// stays with the caller (the image is read, never recycled).
	InitImage *mem.Image
	// Layout, when non-nil, is the pre-computed allocator for this exact
	// application instance, typically cached alongside InitImage. The run
	// replays it (mem.Allocator.Replayer) instead of laying shared memory
	// out again: the app still binds its instance addresses, but the region
	// tables are shared read-only across cells.
	Layout *mem.Allocator
	// Trace, when non-nil, records the run's event trace: scheduler resumes,
	// message traffic, faults, misses, twins, collections and synchronization
	// events flow into it for post-run attribution (internal/trace). Tracing
	// is observation-only — the simulated statistics are bit-identical with
	// and without it, and so is the schedule unless it records the dispatch
	// stream (EnableSched). The tracer must be fresh and sized for nprocs.
	Trace *trace.Tracer
	// Timeout, when > 0, arms the simulator's virtual-time watchdog: a run
	// whose clock would pass this limit fails with a sim.Stalled error
	// naming every blocked process, instead of running unbounded.
	Timeout sim.Time
	// KeepImage asks for a copy of processor 0's final memory image in
	// Result.Image (after verification). Equivalence tests use it to compare
	// final images across fault plans.
	KeepImage bool
	// Perf, when non-nil, accumulates host-side phase timings for this run
	// into the registry's "phase_init_ns" (layout replay, image seeding,
	// node construction), "phase_simulate_ns" (the event loop) and
	// "phase_verify_ns" (stats aggregation + verification) counters, and
	// the run's baton handoffs (sim.Simulator.Handoffs) into "sim_handoffs".
	// Phases read host clocks only — simulated statistics are identical with
	// and without a registry; nil costs nothing (internal/perf).
	Perf *perf.Registry
}

// Validate is the one validator of the machine options and the watchdog:
// every front end (harness.Config, sweep grids and variant specs, the CLIs)
// calls it instead of re-checking. The fabric re-checks only what it cannot
// trust a caller of its own API to have done (EnableTopology, EnableFaults).
func (o Options) Validate() error {
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	if o.Topology != nil {
		if err := o.Topology.Validate(); err != nil {
			return err
		}
		if o.Faults != nil {
			return fmt.Errorf("run: topology and fault injection are mutually exclusive: retransmission timing is calibrated against the flat link")
		}
	}
	if o.BarrierFanIn < 0 {
		return fmt.Errorf("run: negative barrier fan-in %d", o.BarrierFanIn)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("run: negative timeout %v", o.Timeout)
	}
	return nil
}

// node is the common view of ec.Node and lrc.Node the runner needs.
type node interface {
	core.DSM
	Window() (core.Stats, bool)
	SetBarrierFanIn(int)
}

// Result is the outcome of one parallel run.
type Result struct {
	App    string
	Impl   core.Impl
	NProcs int
	Stats  core.Stats
	// LinkWait is the total queueing delay messages spent waiting for the
	// shared link over the whole run (always zero with contention off) —
	// the direct measure of what contention mode models.
	LinkWait sim.Time
	// Faults holds the fault-injection and recovery counters (zero-valued
	// unless Options.Faults was set).
	Faults fabric.FaultStats
	// Image is a copy of processor 0's final memory image, present only when
	// Options.KeepImage was set.
	Image []byte
	// GC is the notice-history collection report, present only when
	// Options.NoticeGC ran (LRC implementations).
	GC *lrc.GCReport
	// NoticeBytes is the final machine-wide LRC notice-history footprint in
	// wire bytes (interval records on every node plus stored diffs at their
	// writers). Zero for EC runs. With GC off this is what grows without
	// bound; the memory-bound regression tests compare it against GC-on.
	NoticeBytes int64
}

// Run executes app on nprocs processors under the given implementation and
// cost model, returning the aggregated statistics.
func Run(app App, impl core.Impl, nprocs int, cm fabric.CostModel) (Result, error) {
	return RunWith(app, impl, nprocs, cm, Options{})
}

// RunWith is Run with per-run Options (fabric contention, cached images).
func RunWith(app App, impl core.Impl, nprocs int, cm fabric.CostModel, opts Options) (Result, error) {
	if !impl.Valid() {
		return Result{}, fmt.Errorf("run: invalid implementation %v", impl)
	}
	ph := opts.Perf.StartPhase("init")
	al := layout(app, opts)
	initIm, cached, err := initialImage(app, al, opts)
	if err != nil {
		return Result{}, err
	}

	s := sim.New()
	net := fabric.New(s, cm, nprocs)
	if opts.Contention {
		net.EnableContention()
	}
	if opts.Topology != nil {
		if err := net.EnableTopology(*opts.Topology); err != nil {
			return Result{}, fmt.Errorf("run: %s: %w", app.Name(), err)
		}
	}
	if opts.Faults != nil {
		if err := net.EnableFaults(*opts.Faults); err != nil {
			return Result{}, fmt.Errorf("run: %s: %w", app.Name(), err)
		}
	}
	if opts.Timeout > 0 {
		s.SetWatchdog(opts.Timeout)
	}
	if opts.Trace != nil {
		if opts.Trace.NProcs() != nprocs {
			return Result{}, fmt.Errorf("run: %s: tracer is sized for %d procs, run has %d",
				app.Name(), opts.Trace.NProcs(), nprocs)
		}
		// The two attach calls of a traced run: the scheduler probe, and the
		// network's tracer, which every node and manager built below reads.
		s.SetProbe(opts.Trace)
		net.SetTracer(opts.Trace)
	}
	nodes := make([]node, nprocs)
	// Each node's image is a copy-on-write fork of the initial image. The
	// nodes are dead once the run returns, on every path: unmap their images
	// (several MB each at paper scale).
	images := make([]*mem.Image, nprocs)
	defer func() {
		for _, im := range images {
			if im != nil {
				im.Release()
			}
		}
	}()
	for i := range images {
		if images[i], err = initIm.Fork(); err != nil {
			break
		}
	}
	// The forks keep the template's pages: close a run-seeded template's
	// file (a cached template stays with its owner).
	if !cached {
		initIm.Release()
	}
	if err != nil {
		return Result{}, fmt.Errorf("run: %s: %w", app.Name(), err)
	}
	var lrcNodes []*lrc.Node
	var hist *lrc.History  // the LRC nodes' shared interval-record log
	var binds *ec.Bindings // the EC nodes' shared initial bindings
	switch impl.Model {
	case core.LRC:
		lrcNodes = make([]*lrc.Node, 0, nprocs)
		hist = lrc.NewHistory(nprocs)
	case core.EC:
		binds = new(ec.Bindings)
	}
	for i := 0; i < nprocs; i++ {
		p := s.Spawn(fmt.Sprintf("%s/p%d", app.Name(), i), func(*sim.Proc) { app.Program(nodes[i]) })
		switch impl.Model {
		case core.EC:
			nodes[i] = ec.NewWithImage(p, net, al, nprocs, impl, images[i], binds)
		case core.LRC:
			n := lrc.NewWithImage(p, net, al, nprocs, impl, images[i], hist)
			nodes[i] = n
			lrcNodes = append(lrcNodes, n)
		}
		if opts.BarrierFanIn >= 2 {
			nodes[i].SetBarrierFanIn(opts.BarrierFanIn)
		}
	}
	var gc *lrc.GC
	if opts.NoticeGC && impl.Model == core.LRC {
		gc = lrc.NewGC(lrcNodes)
	}
	ph.End()
	ph = opts.Perf.StartPhase("simulate")
	if err := s.Run(); err != nil {
		return Result{}, fmt.Errorf("run: %s on %v: %w", app.Name(), impl, err)
	}
	ph.End()
	opts.Perf.Counter("sim_handoffs").Add(s.Handoffs())
	ph = opts.Perf.StartPhase("verify")

	res := Result{App: app.Name(), Impl: impl, NProcs: nprocs, LinkWait: net.LinkWait(), Faults: net.FaultStats()}
	st := &res.Stats
	for i, n := range nodes {
		w, ok := n.Window()
		if !ok {
			return Result{}, fmt.Errorf("run: %s proc %d never called StatsEnd", app.Name(), i)
		}
		st.Time = max(st.Time, w.Time)
		st.Msgs += w.Msgs
		st.Bytes += w.Bytes
		st.Faults += w.Faults
		st.AccessMisses += w.AccessMisses
		st.LockAcquires += w.LockAcquires
		st.ReadLockAcquires += w.ReadLockAcquires
		st.RemoteAcquires += w.RemoteAcquires
		st.DiffsCreated += w.DiffsCreated
		st.TwinsMade += w.TwinsMade
		st.StampRunsSent += w.StampRunsSent
		st.Barriers += w.Barriers
	}
	st.Barriers /= int64(nprocs)
	for _, n := range lrcNodes {
		res.NoticeBytes += n.NoticeHistoryBytes()
	}
	if gc != nil {
		rep := gc.Report()
		res.GC = &rep
	}

	if err := app.Verify(images[0]); err != nil {
		return Result{}, fmt.Errorf("run: %s on %v: verification: %w", app.Name(), impl, err)
	}
	if opts.KeepImage {
		res.Image = append([]byte(nil), images[0].Bytes()...)
	}
	ph.End()
	return res, nil
}

// TraceMeta assembles the analysis metadata for a traced run of app: the
// run identity plus the shared-memory layout (computed here on a fresh
// allocator, so pass a fresh app instance — Layout may bind instance state).
func TraceMeta(app App, impl core.Impl, nprocs int, scale string) trace.Meta {
	al := mem.NewAllocator()
	app.Layout(al)
	return trace.Meta{
		App: app.Name(), Impl: impl.String(), Scale: scale, NProcs: nprocs,
		Regions: al.Regions(), Pages: al.Pages(),
	}
}

// layout binds app's shared regions: against a fresh allocator, or by
// replaying the cached layout from opts so the region tables are shared.
func layout(app App, opts Options) *mem.Allocator {
	al := mem.NewAllocator()
	if opts.Layout != nil {
		al = opts.Layout.Replayer()
	}
	app.Layout(al)
	return al
}

// initialImage produces the seeded initial image for app (already laid out
// on al), honoring a cached image from opts in place of Init. cached reports
// whether the returned image is caller-owned.
func initialImage(app App, al *mem.Allocator, opts Options) (im *mem.Image, cached bool, err error) {
	if opts.InitImage != nil {
		if want := mem.ImageBytes(al.Size()); opts.InitImage.Size() != want {
			return nil, false, fmt.Errorf("run: %s: cached image is %d bytes, layout needs %d",
				app.Name(), opts.InitImage.Size(), want)
		}
		return opts.InitImage, true, nil
	}
	im = mem.NewImage(al.Size())
	app.Init(im)
	return im, false, nil
}

// RunSeq executes app sequentially (one processor, no DSM machinery) and
// returns the pure computation time — the paper's "1 proc." column.
func RunSeq(app App) (sim.Time, error) {
	return RunSeqWith(app, Options{})
}

// RunSeqWith is RunSeq with Options. A cached initial image is forked, not
// mutated: the sequential program runs on its own scratch image.
func RunSeqWith(app App, opts Options) (sim.Time, error) {
	al := layout(app, opts)
	im, cached, err := initialImage(app, al, opts)
	if err != nil {
		return 0, err
	}
	if cached {
		if im, err = im.Fork(); err != nil {
			return 0, fmt.Errorf("run: %s sequential: %w", app.Name(), err)
		}
		defer im.Release()
	}
	d := &Local{im: im}
	app.Program(d)
	if !d.ended {
		return 0, fmt.Errorf("run: %s sequential program never called StatsEnd", app.Name())
	}
	if err := app.Verify(im); err != nil {
		return 0, fmt.Errorf("run: %s sequential: verification: %w", app.Name(), err)
	}
	return d.endTime, nil
}
