package syncmgr

import (
	"fmt"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
	"ecvslrc/internal/trace"
)

// BarrierHooks supplies the model-specific consistency traffic attached to
// barrier episodes. EC barriers move no data (shared data is associated with
// locks, not barriers); LRC barriers exchange interval vectors and write
// notices through the manager.
//
// Payloads are typed fabric.Payload unions; the barrier manager owns the A
// slot (barrier id) and the Kind tag, hooks own the rest (LRC uses Vec and
// Body; EC barriers leave everything zero).
type BarrierHooks interface {
	// MakeArrival builds the client's arrival payload; work is charged to
	// the arriving processor.
	MakeArrival(b core.BarrierID) (payload fabric.Payload, size int, work sim.Time)
	// AbsorbArrival records one arrival at the manager. Implementations
	// must only buffer here: the manager may still be computing, and
	// consistency actions belong at synchronization points.
	AbsorbArrival(b core.BarrierID, from int, payload fabric.Payload) (work sim.Time)
	// PrepareDepartures runs once at the manager when every processor has
	// arrived, before any departure is built. This is the manager's safe
	// point for merging the buffered consistency state.
	PrepareDepartures(b core.BarrierID) (work sim.Time)
	// MakeDeparture builds the departure payload for processor to.
	MakeDeparture(b core.BarrierID, to int) (payload fabric.Payload, size int, work sim.Time)
	// ApplyDeparture installs the departure payload at a client.
	ApplyDeparture(b core.BarrierID, payload fabric.Payload) (work sim.Time)
}

// TreeBarrierHooks is the optional extension a BarrierHooks implementation
// provides to ride a fan-in tree (SetFanIn): MergeSubtreeArrival folds the
// child arrivals buffered by AbsorbArrival into this node's own arrival,
// producing the single arrival message for the node's whole subtree. Hooks
// that do not implement it (EC: barriers move no data) send their own
// arrival unchanged.
type TreeBarrierHooks interface {
	MergeSubtreeArrival(b core.BarrierID, own fabric.Payload) (payload fabric.Payload, size int, work sim.Time)
}

type barrierState struct {
	arrived    int
	reqs       []fabric.Msg // remote arrival requests awaiting departure
	local      *sim.Waiter  // manager's own arrival, if waiting
	ownArrived bool         // tree mode: this node's program reached the barrier
}

// BarrierMgr implements centralized barriers for one processor (Section 6:
// arrival messages to a statically assigned manager, who lowers the barrier
// with departure messages once everyone has arrived).
type BarrierMgr struct {
	self     int
	nprocs   int
	p        *sim.Proc
	hc       *fabric.HandlerCtx // p's own execution context
	net      *fabric.Network
	hooks    BarrierHooks
	barriers map[core.BarrierID]*barrierState
	cnt      *Counters
	// tr is the network's tracer when the manager was built (nil-safe,
	// observation-only): each processor's arrival and departure instants are
	// recorded, from which the analyzer derives per-episode barrier imbalance.
	tr    *trace.Tracer
	fanin int // >= 2: implicit radix-fanin arrival/departure tree
}

// SetFanIn arranges every barrier episode as an implicit radix-r tree rooted
// at the barrier's manager instead of the flat all-to-one exchange. Ranks are
// processor ids rotated so the manager is rank 0; rank k's parent is rank
// (k-1)/r and its children are ranks rk+1..rk+r. Each node waits for its
// children's subtree arrivals, merges them with its own (TreeBarrierHooks),
// sends one arrival up, and fans the departure back out to its children. The
// flat protocol serializes O(nprocs) messages through one handler — the
// dominant term at 256-1024 processors — where the tree pays O(log_r nprocs)
// chained hops. r < 2 keeps the flat protocol. Must be called before the
// simulation starts; message contents differ from the flat exchange, so
// runs with fan-in are a distinct experiment, not a byte-identical one.
func (m *BarrierMgr) SetFanIn(r int) {
	if r < 2 {
		r = 0
	}
	m.fanin = r
}

// NewBarrierMgr returns the barrier manager endpoint for processor p.
func NewBarrierMgr(p *sim.Proc, net *fabric.Network, nprocs int, hooks BarrierHooks, cnt *Counters) *BarrierMgr {
	return &BarrierMgr{
		self:     p.ID(),
		nprocs:   nprocs,
		p:        p,
		hc:       net.Proc(p),
		net:      net,
		hooks:    hooks,
		barriers: make(map[core.BarrierID]*barrierState),
		cnt:      cnt,
		tr:       net.Tracer(),
	}
}

// ManagerOf returns the barrier's statically assigned manager.
func (m *BarrierMgr) ManagerOf(b core.BarrierID) int { return int(b) % m.nprocs }

func (m *BarrierMgr) state(b core.BarrierID) *barrierState {
	st := m.barriers[b]
	if st == nil {
		st = &barrierState{}
		m.barriers[b] = st
	}
	return st
}

// charge records d of classified consistency work for barrier b and charges
// it in context hc; zero work is dropped by both.
func (m *BarrierMgr) charge(hc *fabric.HandlerCtx, b core.BarrierID, d sim.Time) {
	m.tr.Work(hc.Now(), m.self, trace.WorkTrapDiff, trace.ObjBarrier, int(b), d)
	hc.Work(d)
}

// treeRank is this processor's rank in barrier b's tree: ids rotated so the
// manager is rank 0.
func (m *BarrierMgr) treeRank(b core.BarrierID) int {
	return (m.self - m.ManagerOf(b) + m.nprocs) % m.nprocs
}

// treeParent is the processor id of this node's tree parent for barrier b.
func (m *BarrierMgr) treeParent(b core.BarrierID) int {
	k := (m.treeRank(b) - 1) / m.fanin
	return (m.ManagerOf(b) + k) % m.nprocs
}

// treeChildren is how many direct children this node has in barrier b's tree.
func (m *BarrierMgr) treeChildren(b core.BarrierID) int {
	lo := m.treeRank(b)*m.fanin + 1
	if lo >= m.nprocs {
		return 0
	}
	hi := lo + m.fanin
	if hi > m.nprocs {
		hi = m.nprocs
	}
	return hi - lo
}

// waitTree is Wait under SetFanIn: block until the subtree below this node
// has arrived, send one merged arrival up, and fan the departure back down.
// Departures to children are always built in this node's program context
// (after its own departure applied), never in handler context.
func (m *BarrierMgr) waitTree(b core.BarrierID) {
	m.cnt.Barriers++
	payload, size, work := m.hooks.MakeArrival(b)
	payload.Kind, payload.A = fabric.PayloadBarrier, int32(b)
	m.charge(m.hc, b, work)
	m.tr.BarArrive(m.p.Now(), m.self, int(b))

	root := m.self == m.ManagerOf(b)
	st := m.state(b)
	st.ownArrived = true
	if root {
		// The root absorbs its own arrival exactly like the flat manager.
		m.charge(m.hc, b, m.hooks.AbsorbArrival(b, m.self, payload))
	}
	if st.arrived < m.treeChildren(b) {
		if st.local != nil {
			panic(fmt.Sprintf("syncmgr: barrier %d node arrived twice", b))
		}
		st.local = sim.NewWaiter(m.p)
		st.local.Wait(sim.ForBarrier(int(b)))
		st.local = nil
	}

	// The whole subtree is in. Claim the buffered child requests and reset
	// the state before blocking upward, so next-episode arrivals (which can
	// reach us only after our departures below) start from a clean slate.
	reqs := st.reqs
	st.reqs, st.arrived, st.ownArrived = nil, 0, false

	if !root {
		up, usize, uwork := payload, size, sim.Time(0)
		if th, ok := m.hooks.(TreeBarrierHooks); ok {
			up, usize, uwork = th.MergeSubtreeArrival(b, payload)
			up.Kind, up.A = fabric.PayloadBarrier, int32(b)
		}
		m.charge(m.hc, b, uwork)
		reply := call(m.net, m.p, sim.ForBarrier(int(b)), m.treeParent(b), KindBarrierArrive, usize, up)
		m.charge(m.hc, b, m.hooks.ApplyDeparture(b, reply.Payload))
	} else {
		m.charge(m.hc, b, m.hooks.PrepareDepartures(b))
	}
	m.tr.BarDepart(m.p.Now(), m.self, int(b))
	for _, req := range reqs {
		dp, dsize, dwork := m.hooks.MakeDeparture(b, req.From)
		dp.Kind, dp.A = fabric.PayloadBarrier, int32(b)
		m.charge(m.hc, b, dwork)
		m.hc.Reply(req, KindBarrierDepart, dsize, dp)
	}
}

// Wait blocks until all processors have arrived at barrier b.
func (m *BarrierMgr) Wait(b core.BarrierID) {
	if m.fanin >= 2 && m.nprocs > 1 {
		m.waitTree(b)
		return
	}
	m.cnt.Barriers++
	payload, size, work := m.hooks.MakeArrival(b)
	payload.Kind, payload.A = fabric.PayloadBarrier, int32(b)
	m.charge(m.hc, b, work)
	m.tr.BarArrive(m.p.Now(), m.self, int(b))

	mgr := m.ManagerOf(b)
	if mgr != m.self {
		reply := call(m.net, m.p, sim.ForBarrier(int(b)), mgr, KindBarrierArrive, size, payload)
		m.charge(m.hc, b, m.hooks.ApplyDeparture(b, reply.Payload))
		m.tr.BarDepart(m.p.Now(), m.self, int(b))
		return
	}

	// Manager's own arrival.
	st := m.state(b)
	m.charge(m.hc, b, m.hooks.AbsorbArrival(b, m.self, payload))
	st.arrived++
	if st.arrived < m.nprocs {
		if st.local != nil {
			panic(fmt.Sprintf("syncmgr: barrier %d manager arrived twice", b))
		}
		st.local = sim.NewWaiter(m.p)
		st.local.Wait(sim.ForBarrier(int(b)))
		m.tr.BarDepart(m.p.Now(), m.self, int(b))
		return
	}
	m.depart(b, st, m.hc)
	m.tr.BarDepart(m.p.Now(), m.self, int(b))
}

// Handle processes a barrier-protocol message; returns false if the message
// is not a barrier message. Relies on the package delivery contract: a
// duplicated KindBarrierArrive would over-count st.arrived and lower the
// barrier early, so dedup must happen below this layer.
func (m *BarrierMgr) Handle(hc *fabric.HandlerCtx, msg fabric.Msg) bool {
	if msg.Kind != KindBarrierArrive {
		return false
	}
	b := core.BarrierID(msg.Payload.A)
	st := m.state(b)
	m.charge(hc, b, m.hooks.AbsorbArrival(b, msg.From, msg.Payload))
	st.arrived++
	st.reqs = append(st.reqs, msg)
	if m.fanin >= 2 {
		// Tree mode: arrivals are subtree arrivals from direct children. The
		// handler only buffers; when the last child completes the subtree and
		// this node's own program already arrived, wake it to carry the
		// merged arrival upward (or, at the root, to lower the barrier).
		if st.ownArrived && st.arrived == m.treeChildren(b) && st.local != nil {
			st.local.Deliver(nil, hc.Now())
		}
		return true
	}
	if st.arrived == m.nprocs {
		m.depart(b, st, hc)
	}
	return true
}

// depart lowers the barrier from context hc — the manager's program when it
// arrived last (m.hc), or the handler of the remote arrival that completed
// the set: departure messages to every queued remote arrival, and a local
// wake-up if the manager itself is waiting.
func (m *BarrierMgr) depart(b core.BarrierID, st *barrierState, hc *fabric.HandlerCtx) {
	reqs := st.reqs
	local := st.local
	st.reqs = nil
	st.local = nil
	st.arrived = 0

	m.charge(hc, b, m.hooks.PrepareDepartures(b))
	for _, req := range reqs {
		payload, size, work := m.hooks.MakeDeparture(b, req.From)
		payload.Kind, payload.A = fabric.PayloadBarrier, int32(b)
		m.charge(hc, b, work)
		hc.Reply(req, KindBarrierDepart, size, payload)
	}
	if local != nil {
		if hc == m.hc {
			panic("syncmgr: manager waiting on its own last arrival")
		}
		local.Deliver(nil, hc.Now())
	}
}
