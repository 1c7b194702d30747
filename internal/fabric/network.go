package fabric

import (
	"fmt"

	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// Msg is one ATM message. Size is the payload size in bytes; MsgHeader is
// added automatically for cost and statistics purposes. Msg is a plain value:
// the typed Payload union replaces the former `any` payload, so queuing,
// forwarding and delivering a message never allocates.
type Msg struct {
	From    int
	To      int
	Kind    int
	Size    int
	Payload Payload

	waiter *sim.Waiter // reply rendezvous for Call; nil for one-way messages
}

// Handler services an incoming request at a processor, in the role of the
// paper's SIGIO signal handler: it runs at message-arrival time, consumes CPU
// of the hosting processor, and may send or reply via the HandlerCtx.
type Handler func(hc *HandlerCtx, m Msg)

// Stats counts the traffic originated by one processor.
type Stats struct {
	Msgs  int64
	Bytes int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Msgs += other.Msgs
	s.Bytes += other.Bytes
}

// Sub returns s minus other, used for measurement windows.
func (s Stats) Sub(other Stats) Stats {
	return Stats{Msgs: s.Msgs - other.Msgs, Bytes: s.Bytes - other.Bytes}
}

// flight is one in-transit message: the slot that carries a Msg from the
// sender's schedule to its arrival. A flight is the sim.Timer target of its
// own delivery events (stored inline, no closure), and is recycled through
// the network's free list, so steady-state delivery performs zero
// allocations.
type flight struct {
	n     *Network
	msg   Msg
	reply bool // deliver to the request's waiter instead of the handler
	claim bool // contention: the next Fire claims the shared link first

	// Reliable-sublayer fields, used only when a fault plan is active (see
	// faults.go): rel routes the arrival through the receiver's dedup and
	// reorder logic, seq is the frame's per-link sequence number, nominal its
	// fault-free arrival time (for recovery-wait accounting).
	rel     bool
	seq     uint32
	nominal sim.Time
}

// Fire advances the flight one stage: claim the shared link (contention
// mode), then deliver — to the destination handler, or to the waiting
// caller for replies.
func (fl *flight) Fire(at sim.Time) {
	n := fl.n
	if fl.claim {
		// Link claims are events, so they serialize in virtual-time order.
		fl.claim = false
		n.procs[fl.msg.From].AddInbound(-1)
		n.tr.LinkClaim(at, fl.msg.From, fl.msg.To, fl.msg.Size+MsgHeader)
		done := n.claimTopo(at, fl.msg.From, fl.msg.To, fl.msg.Size+MsgHeader)
		n.sim.ScheduleTimer(done+n.wireLatency(fl.msg.From, fl.msg.To), fl, n.procs[fl.msg.To])
		return
	}
	if fl.rel {
		// Fault mode: the arrival passes through the reliable sublayer
		// (dedup, reorder buffer, ack) before reaching the handler or waiter.
		n.faults.arrive(fl, at)
		return
	}
	if fl.reply {
		// Reply handling interrupts the receiver like any message. The slot
		// is released by Await once the caller has copied the reply out.
		n.tr.Deliver(at, fl.msg.From, fl.msg.To, fl.msg.Kind, fl.msg.Size+MsgHeader)
		n.procs[fl.msg.To].InjectWork(n.cm.HandlerFixed)
		fl.msg.waiter.Deliver(fl, at+n.cm.HandlerFixed)
		return
	}
	m := fl.msg
	n.release(fl)
	n.deliver(m, at)
}

// Network is the simulated ATM LAN. Every processor attaches one endpoint
// (its sim.Proc plus a request handler). Messages between distinct processors
// cost sender CPU time, wire latency and receiver handler time; a processor
// never sends a message to itself (protocol code must special-case local
// managers, as the real systems do).
type Network struct {
	sim      *sim.Simulator
	cm       CostModel
	procs    []*sim.Proc
	handlers []Handler
	stats    []Stats

	// free recycles the flight slots of consumed messages, whatever their
	// destination, so a cell holds as many flights as it ever has messages
	// in flight at once.
	free []*flight

	// hctx is the scratch handler context reused across deliveries: handlers
	// run synchronously in scheduler context and never nest, so one lives at
	// a time and delivery allocates nothing. ctxs holds each processor's own
	// context (Proc).
	hctx HandlerCtx
	ctxs []HandlerCtx

	// tr records send/deliver/link events for the tracing subsystem. All
	// emit methods are nil-safe, so the disabled path costs one nil check
	// per hook and allocates nothing.
	tr *trace.Tracer

	// Link contention (opt-in; see EnableContention). linkWait accumulates
	// the queueing delay messages suffered behind the geometry's resources.
	contention bool
	linkWait   sim.Time

	// faults, when non-nil, is the seeded fault injector plus the
	// reliable-delivery sublayer (see faults.go and EnableFaults). The
	// fault-free path costs one nil check in transmit.
	faults *faultState

	// topo is the switch geometry (see topology.go): per-level latency and,
	// with contention, per-subtree tapered bandwidth. New installs the flat
	// shared link as its one-stage case; clos records that EnableTopology
	// replaced it, which a fault plan excludes.
	topo *topoState
	clos bool
}

// New returns a network over s for nprocs processors using cost model cm.
// Its interconnect is the flat shared link: one switch stage whose radix
// covers the machine and whose taper equals its radix, so every message
// crosses one level, at single-link speed, in one WireLatency.
func New(s *sim.Simulator, cm CostModel, nprocs int) *Network {
	n := &Network{
		sim:      s,
		cm:       cm,
		procs:    make([]*sim.Proc, nprocs),
		handlers: make([]Handler, nprocs),
		stats:    make([]Stats, nprocs),
		ctxs:     make([]HandlerCtx, nprocs),
	}
	r := max(2, nprocs)
	n.setGeometry(Topology{Radix: r, Taper: float64(r), ForcedStages: 1})
	return n
}

// Cost returns the network's cost model.
func (n *Network) Cost() *CostModel { return &n.cm }

// SetTracer attaches the event tracer (nil to detach). Tracing is
// observation-only: traced runs stay bit-identical to untraced ones. Attach
// it before building the protocol nodes and managers: each reads Tracer once,
// when it is built.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tr = tr }

// Tracer returns the attached event tracer, nil when tracing is off.
func (n *Network) Tracer() *trace.Tracer { return n.tr }

// EnableContention switches on link contention: every message must
// additionally occupy its crossing level's resource — on the flat link, the
// shared ATM path — for (size+header)*LinkPerByte (divided by the level's
// aggregate speedup) after the sender's programmed I/O completes, and each
// resource serves one message at a time in claim order. With contention off
// (the default) transfers overlap for free and all outputs are byte-identical
// to the calibrated model. Must be called before the simulation starts.
func (n *Network) EnableContention() { n.contention = true }

// LinkWait returns the total queueing delay messages spent waiting for the
// shared link (always zero with contention off).
func (n *Network) LinkWait() sim.Time { return n.linkWait }

// newFlight takes a slot from the free list (or grows it) and loads m into
// it.
func (n *Network) newFlight(m Msg) *flight {
	if k := len(n.free); k > 0 {
		fl := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		fl.msg = m
		return fl
	}
	return &flight{n: n, msg: m}
}

// release returns a consumed flight to the free list, cleared for reuse.
func (n *Network) release(fl *flight) {
	*fl = flight{n: n}
	n.free = append(n.free, fl)
}

// transmit moves fl, whose sender-side processing ends at sendEnd, to its
// receiver: through the reliable sublayer when a fault plan is active (which
// puts each attempt on the wire itself), else straight onto the wire.
func (n *Network) transmit(sendEnd sim.Time, fl *flight) {
	if n.faults != nil {
		n.faults.send(sendEnd, fl)
		return
	}
	n.putOnWire(sendEnd, fl)
}

// putOnWire puts fl on the wire at at. Without contention the message
// arrives a wire latency later, scheduled directly (the pre-contention event
// pattern, kept bit-identical). With contention the message first claims its
// crossing level's resource at at — claims are processed in virtual-time
// order because they are themselves events — holds it for its transfer
// time, and only then starts its wire latency. Every stage's timer is aimed
// at the destination, which it acts on; the claim also counts toward the
// sender's inbound tally until it fires, because it writes into the sender's
// trace buffer, which the sender must not run ahead of.
func (n *Network) putOnWire(at sim.Time, fl *flight) {
	if n.contention {
		fl.claim = true
		n.procs[fl.msg.From].AddInbound(1)
		n.sim.ScheduleTimer(at, fl, n.procs[fl.msg.To])
		return
	}
	n.sim.ScheduleTimer(at+n.wireLatency(fl.msg.From, fl.msg.To), fl, n.procs[fl.msg.To])
}

// Attach registers proc (with request handler h) as processor proc.ID().
func (n *Network) Attach(p *sim.Proc, h Handler) {
	n.procs[p.ID()] = p
	n.handlers[p.ID()] = h
	n.ctxs[p.ID()] = HandlerCtx{n: n, p: p, self: p.ID()}
}

// ProcStats returns the traffic counters for processor id.
func (n *Network) ProcStats(id int) Stats { return n.stats[id] }

// Total sums traffic over all processors.
func (n *Network) Total() Stats {
	var t Stats
	for _, s := range n.stats {
		t.Add(s)
	}
	return t
}

func (n *Network) account(from, size int) int {
	total := size + MsgHeader
	n.stats[from].Msgs++
	n.stats[from].Bytes += int64(total)
	return total
}

// Proc returns processor p's own execution context: the same protocol
// actions a handler performs through its HandlerCtx — Send, Reply, Forward,
// Work — performed by the running program, which sleeps through each cost
// instead of accumulating it. One value per processor, valid from Attach on.
func (n *Network) Proc(p *sim.Proc) *HandlerCtx { return &n.ctxs[p.ID()] }

// Send transmits a one-way message from the running processor p. The sender
// is busy for the programmed-I/O cost of the message.
func (n *Network) Send(p *sim.Proc, to, kind, size int, payload Payload) {
	n.Proc(p).Send(to, kind, size, payload)
}

// Call transmits a request from the running processor p and blocks until the
// matching Reply arrives, returning the reply message. The remote handler may
// reply immediately, forward the request, or queue it and reply much later.
// The rendezvous reuses p's cached waiter: a processor has at most one
// synchronous call outstanding. The caller parks unlabelled; one that knows
// what the reply means pairs CallAsync on p.CallWaiter() with a labelled
// Await instead.
func (n *Network) Call(p *sim.Proc, to, kind, size int, payload Payload) Msg {
	w := p.CallWaiter()
	n.CallAsync(p, w, to, kind, size, payload)
	return n.Await(w, sim.Wait{})
}

// CallAsync transmits a request without blocking, so a processor can issue
// several requests in parallel (as TreadMarks does for diff fetches) and then
// collect each reply through Await on the request's waiter. The caller
// provides the waiter — one per outstanding request, owned by p and idle —
// so a processor that fetches over and over keeps its waiters instead of
// allocating one per call.
func (n *Network) CallAsync(p *sim.Proc, w *sim.Waiter, to, kind, size int, payload Payload) {
	n.Proc(p).launch(Msg{From: p.ID(), To: to, Kind: kind, Size: size, Payload: payload, waiter: w}, false)
}

// Await blocks on what until the reply for a Call/CallAsync waiter arrives
// and returns it. CallAsync callers must collect each reply through Await,
// not Waiter.Wait directly: the delivered value is the fabric's in-flight
// slot, which Await copies out and returns to the network's free list.
func (n *Network) Await(w *sim.Waiter, what sim.Wait) Msg {
	fl := w.Wait(what).(*flight)
	m := fl.msg
	m.waiter = nil
	fl.n.release(fl)
	return m
}

// deliver runs the destination's request handler at arrival time, charging
// handler CPU to the destination processor.
func (n *Network) deliver(m Msg, at sim.Time) {
	if m.waiter != nil && m.Kind < 0 {
		panic("fabric: negative kinds are reserved")
	}
	n.tr.Deliver(at, m.From, m.To, m.Kind, m.Size+MsgHeader)
	hc := &n.hctx
	*hc = HandlerCtx{n: n, self: m.To, at: at, busy: n.cm.HandlerFixed}
	h := n.handlers[m.To]
	if h == nil {
		panic(fmt.Sprintf("fabric: no handler attached for proc %d", m.To))
	}
	h(hc, m)
	n.procs[m.To].InjectWork(hc.busy)
}

// HandlerCtx is the execution context of a protocol action: who performs it
// and how its CPU time is charged. There are two kinds. A handler's context
// (deliver) runs in scheduler context at message-arrival time: Now is the
// arrival time plus the work so far, Work accumulates, and the total is
// charged to the hosting processor after the handler returns; it is valid
// only for the duration of the handler call (it is reused across
// deliveries). A processor's own context (Network.Proc) runs in the program:
// Now is the process clock and Work sleeps. Everything else — accounting,
// tracing, the order of charge and transmit — is one code path (launch).
type HandlerCtx struct {
	n    *Network
	p    *sim.Proc // the running processor, for its own context; nil in a handler's
	self int
	at   sim.Time
	busy sim.Time
}

// Now returns the context's current virtual time.
func (hc *HandlerCtx) Now() sim.Time {
	if hc.p != nil {
		return hc.p.Now()
	}
	return hc.at + hc.busy
}

// Work charges d of CPU time to the hosting processor (e.g. a timestamp scan
// or a diff creation performed while servicing a request).
func (hc *HandlerCtx) Work(d sim.Time) {
	if hc.p != nil {
		hc.p.Sleep(d)
		return
	}
	hc.busy += d
}

// launch is the one send path: charge the sender the programmed-I/O cost of
// m and put it in flight once that cost has elapsed. Account, trace, charge,
// take the slot, transmit — in that order in both contexts, so the events a
// send schedules keep their sequence numbers whoever performs it.
func (hc *HandlerCtx) launch(m Msg, reply bool) {
	n := hc.n
	if m.To == hc.self {
		panic(fmt.Sprintf("fabric: proc %d sending to itself (kind %d)", m.To, m.Kind))
	}
	if m.To < 0 || m.To >= len(n.procs) {
		panic(fmt.Sprintf("fabric: bad destination %d", m.To))
	}
	total := n.account(hc.self, m.Size)
	n.tr.Send(hc.Now(), hc.self, m.To, m.Kind, total)
	// The flight is queued only once the programmed I/O is paid, and may
	// then arrive a wire latency later: mark the destination meanwhile, so
	// it does not run ahead past that arrival.
	dst := n.procs[m.To]
	dst.AddInbound(1)
	hc.Work(n.cm.MsgCost(total))
	fl := n.newFlight(m)
	fl.reply = reply
	n.transmit(hc.Now(), fl)
	dst.AddInbound(-1)
}

// Send transmits a one-way message.
func (hc *HandlerCtx) Send(to, kind, size int, payload Payload) {
	hc.launch(Msg{From: hc.self, To: to, Kind: kind, Size: size, Payload: payload}, false)
}

// Reply answers request req: from the handler that received it, or later
// from the program when the request was queued (a lock released while others
// wait, a barrier lowered by the manager's own arrival).
func (hc *HandlerCtx) Reply(req Msg, kind, size int, payload Payload) {
	if req.waiter == nil {
		panic("fabric: Reply to a one-way message")
	}
	hc.launch(Msg{From: hc.self, To: req.From, Kind: kind, Size: size, Payload: payload, waiter: req.waiter}, true)
}

// Forward re-addresses request req to another processor, preserving the
// original requester's reply path (the manager-forwarding pattern of
// Section 6). extraSize is added to the forwarded payload size.
func (hc *HandlerCtx) Forward(req Msg, to int, extraSize int) {
	req.To = to
	req.Size += extraSize
	hc.launch(req, false)
}
