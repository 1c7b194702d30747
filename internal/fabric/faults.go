package fabric

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ecvslrc/internal/sim"
)

// ErrFaultPlan is wrapped by every FaultPlan validation failure.
var ErrFaultPlan = errors.New("invalid fault plan")

// FaultPlan is a seeded description of how the network misbehaves. Every
// per-frame fate (drop, duplicate, delay amount, ack loss) is a pure function
// of (Seed, directed link, sequence number, attempt, virtual send time), so a
// run under a given plan is bit-reproducible: the same (plan, program) pair
// always drops the same frames at the same virtual instants, regardless of
// host scheduling or worker count.
//
// Enabling any plan — even an all-zero-rate one — routes every message
// through the reliable-delivery sublayer: per-link sequence numbers,
// receiver-side dedup and reorder buffering, cumulative acks, and timeout
// retransmission with exponential backoff. Protocol handlers therefore still
// observe exactly-once, in-order delivery per directed link; only the timing
// (and the traffic counters, which include retransmissions) changes.
//
// A plan chooses only its seed and its three rates. The sublayer's timing —
// the base retransmission timeout, the retry bound and the injected-delay
// bound — is fixed (rto, maxRetries, delayMax).
type FaultPlan struct {
	// Name labels the plan in reports: FaultPreset sets it to the preset
	// name, hand-built plans leave it empty. It decides nothing.
	Name string
	// Seed keys the fault PRNG. Two runs with the same seed and rates make
	// identical per-frame decisions.
	Seed uint64
	// Drop is the probability that one transmission attempt (data frame or
	// ack) is lost before reaching the wire.
	Drop float64
	// Dup is the probability that a data-frame attempt is delivered twice
	// (the copy arrives after an extra delay).
	Dup float64
	// Delay is the probability that an attempt is held back; a delayed frame
	// arrives up to delayMax late, which is also how reordering happens: a
	// delayed frame can be overtaken by its successors on the same link.
	Delay float64
}

// The reliable sublayer's timing constants. They are the same for every
// plan and do not scale with the cost model: a ScaleNetwork variant keeps the
// paper platform's timeouts.
const (
	// rto is the base retransmission timeout, doubling per retry up to 16x:
	// several times the ack round trip, so spurious retransmissions are rare
	// at low loss rates.
	rto = sim.Millisecond
	// maxRetries bounds retransmissions per frame; past it the run fails
	// with a diagnostic (the plan is then not recoverable).
	maxRetries = 12
	// delayMax bounds the extra latency the delay and duplicate injectors
	// add: about two round trips.
	delayMax = 2 * sim.Millisecond
)

// Validate checks the plan's rates, wrapping ErrFaultPlan.
func (p FaultPlan) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fabric: %w: %s rate %v outside [0,1]", ErrFaultPlan, name, v)
		}
		return nil
	}
	if err := check("drop", p.Drop); err != nil {
		return err
	}
	if err := check("dup", p.Dup); err != nil {
		return err
	}
	if err := check("delay", p.Delay); err != nil {
		return err
	}
	if p.Drop >= 1 {
		return fmt.Errorf("fabric: %w: drop rate 1 loses every attempt (unrecoverable)", ErrFaultPlan)
	}
	return nil
}

// FaultPresetNames lists the named fault plans, the fault-free one first.
func FaultPresetNames() []string { return []string{"off", "drop1e-3", "drop1e-2", "chaos"} }

// FaultPreset returns the named fault plan: "off" (nil — faults disabled),
// "drop1e-3" and "drop1e-2" (pure loss at 0.1% and 1%), or "chaos" (loss,
// duplication and delay combined). These are the plans the dsmsweep fault
// axis and the CI chaos job run under.
func FaultPreset(name string) (*FaultPlan, error) {
	switch name {
	case "off":
		return nil, nil
	case "drop1e-3":
		return &FaultPlan{Name: name, Seed: 1, Drop: 1e-3}, nil
	case "drop1e-2":
		return &FaultPlan{Name: name, Seed: 1, Drop: 1e-2}, nil
	case "chaos":
		return &FaultPlan{Name: name, Seed: 1, Drop: 5e-3, Dup: 5e-3, Delay: 2e-2}, nil
	}
	return nil, fmt.Errorf("fabric: %w: unknown fault preset %q (known: %s)",
		ErrFaultPlan, name, strings.Join(FaultPresetNames(), ", "))
}

// FaultStats counts what the fault layer did to one run's traffic. All
// quantities are deterministic for a given (plan, program) pair.
type FaultStats struct {
	// Sent counts data frames entering the reliable sublayer (first
	// attempts only; retransmissions are counted separately).
	Sent int64
	// Dropped counts lost data-frame transmission attempts.
	Dropped int64
	// Duplicated counts injected duplicate deliveries.
	Duplicated int64
	// Delayed counts attempts held back by the delay injector.
	Delayed int64
	// Retransmits counts timeout-driven retransmissions.
	Retransmits int64
	// DupsDropped counts frames the receiver discarded as duplicates
	// (injected duplicates plus retransmissions of already-arrived frames).
	DupsDropped int64
	// OutOfOrder counts frames that arrived ahead of a gap and waited in the
	// receiver's reorder buffer.
	OutOfOrder int64
	// Acks counts acknowledgement frames the receivers generated; AcksLost
	// counts the ones the fault injector discarded.
	Acks     int64
	AcksLost int64
	// RecoveryWait totals, over all delivered frames, how much later each
	// was handed to its destination than its first attempt's fault-free
	// arrival time — the virtual-time cost of loss recovery and reordering.
	RecoveryWait sim.Time
}

// String renders the headline recovery counters.
func (fs FaultStats) String() string {
	return fmt.Sprintf("sent %d, dropped %d, dup %d, delayed %d, retransmits %d, dups-dropped %d, ooo %d, acks %d (lost %d), recovery wait %v",
		fs.Sent, fs.Dropped, fs.Duplicated, fs.Delayed, fs.Retransmits,
		fs.DupsDropped, fs.OutOfOrder, fs.Acks, fs.AcksLost, fs.RecoveryWait)
}

// PRNG purposes: every independent decision about the same attempt hashes a
// distinct purpose constant, so fates never correlate.
const (
	pDrop = iota + 1
	pDelayHit
	pDelayAmt
	pDup
	pDupDelay
	pAckDrop
	pAckDelayHit
	pAckDelayAmt
)

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// relFrame is the sender-side record of one data frame. It is also the
// frame's retransmission timer (Fire): every attempt arms exactly one, and
// the next attempt is only made when that one fires, so exactly one is
// pending per frame at any time. While unacked the frame sits in its link's
// window; once acked it waits for that pending timer, whose firing is the
// last reference to it and returns it to the sublayer's free list.
type relFrame struct {
	fs      *faultState
	next    *relFrame // the next frame in the link's window, or in the free list
	msg     Msg
	reply   bool
	acked   bool
	seq     uint32
	attempt int
	// nominal is the frame's fault-free arrival time (first attempt's send
	// end plus wire latency); RecoveryWait accumulates deliveries past it.
	nominal sim.Time
}

// heldFrame is one out-of-order frame parked in a receiver's reorder buffer.
type heldFrame struct {
	seq     uint32
	msg     Msg
	reply   bool
	nominal sim.Time
}

// relLink is the reliable-delivery state of one directed link. The sender
// half numbers outgoing frames and holds the unacked window; the receiver
// half enforces exactly-once in-order delivery.
type relLink struct {
	sendSeq    uint32
	deliverSeq uint32
	ackDraw    uint32 // per-link counter salting ack fate draws
	// first and last bound the window: the frames sent on this link and not
	// acked yet, in sequence order, linked through next. A list rather than
	// a slice keeps the struct at 56 bytes (a fault cell holds nprocs² of
	// them); a window rarely holds more than a few frames.
	first, last *relFrame
	held        []heldFrame // sorted by seq
}

// push appends a freshly sent frame, the highest sequence yet, to the window.
func (lk *relLink) push(fr *relFrame) {
	if lk.last == nil {
		lk.first = fr
	} else {
		lk.last.next = fr
	}
	lk.last = fr
}

// ack takes the frames an ack covers out of the window and marks them
// acked: every sequence below the receiver's cumulative edge below, plus got,
// the one that triggered the ack. It returns how many it took. The walk stops
// at the first frame past both, so it costs the covered prefix, plus the
// frames between the edge and got when got lies above the edge.
func (lk *relLink) ack(below, got uint32) int {
	n := 0
	var prev *relFrame
	for fr := lk.first; fr != nil && (fr.seq < below || fr.seq <= got); fr = fr.next {
		if fr.seq >= below && fr.seq != got {
			prev = fr // still unacked
			continue
		}
		if prev == nil {
			lk.first = fr.next
		} else {
			prev.next = fr.next
		}
		if lk.last == fr {
			lk.last = prev
		}
		fr.acked = true
		n++
	}
	return n
}

func (lk *relLink) holds(seq uint32) bool {
	for i := range lk.held {
		if lk.held[i].seq == seq {
			return true
		}
	}
	return false
}

// insert places hf into the reorder buffer, keeping it sorted by seq.
func (lk *relLink) insert(hf heldFrame) {
	i := sort.Search(len(lk.held), func(i int) bool { return lk.held[i].seq >= hf.seq })
	lk.held = append(lk.held, heldFrame{})
	copy(lk.held[i+1:], lk.held[i:])
	lk.held[i] = hf
}

// faultState is the per-network fault injector plus reliable-delivery
// sublayer. It exists only when EnableFaults was called; the fault-free path
// costs one nil check in transmit and stays event-for-event identical to the
// seed fabric. Frames and ack timers are recycled through free lists, and
// the reorder buffers and flights keep their capacity, so once warm the
// sublayer allocates nothing either.
type faultState struct {
	n      *Network
	plan   FaultPlan
	nprocs int
	links  []relLink // directed, indexed from*nprocs+to
	stats  FaultStats

	freeFrames *relFrame // linked through next
	freeAcks   *ackTimer // linked through next
}

// roll returns a deterministic uniform draw in [0,1) for one decision about
// one attempt: a pure function of (seed, purpose, virtual time, link, seq,
// attempt), independent of host scheduling.
func (fs *faultState) roll(purpose int, at sim.Time, from, to int, seq uint32, attempt int) float64 {
	x := mix64(fs.plan.Seed ^ uint64(purpose)<<56)
	x = mix64(x ^ uint64(at))
	x = mix64(x ^ uint64(from)<<40 ^ uint64(to)<<20 ^ uint64(seq))
	x = mix64(x ^ uint64(attempt))
	return float64(x>>11) / (1 << 53)
}

// timeout returns the retransmission timeout for the given attempt: the base
// rto doubling per retry, capped at 16x.
func timeout(attempt int) sim.Time {
	shift := attempt
	if shift > 4 {
		shift = 4
	}
	return rto << uint(shift)
}

func (fs *faultState) link(from, to int) *relLink { return &fs.links[from*fs.nprocs+to] }

// send routes a freshly posted flight into the reliable sublayer: assign the
// link's next sequence number, keep the frame in the window until it is
// acked, and launch the first transmission attempt.
//
// The frame's retransmission timers act on the sender (they charge the
// resend and write its trace records) but are aimed at nobody, so that the
// leftover timer of an acked frame does not keep the sender from running
// ahead. Instead the sender is marked inbound for exactly as long as the
// frame is unacked: until the ack lands, every timer that can act on it.
func (fs *faultState) send(sendEnd sim.Time, fl *flight) {
	from, to := fl.msg.From, fl.msg.To
	lk := fs.link(from, to)
	fr := fs.freeFrames
	if fr != nil {
		fs.freeFrames = fr.next
	} else {
		fr = &relFrame{}
	}
	*fr = relFrame{
		fs:      fs,
		msg:     fl.msg,
		reply:   fl.reply,
		seq:     lk.sendSeq,
		nominal: sendEnd + fs.n.wireLatency(from, to),
	}
	lk.sendSeq++
	lk.push(fr)
	fs.n.procs[from].AddInbound(1)
	fs.stats.Sent++
	fs.attempt(sendEnd, fr, fl)
}

// attempt launches one transmission attempt of fr, deciding its fate with
// the plan PRNG. fl, when non-nil, is the already-built flight to reuse for
// this attempt (the first one); retransmissions pass nil and get a fresh
// slot. Whatever the fate, a retransmission timer is armed: only an ack
// cancels the frame.
//
// Each copy put on the wire also marks the sender until it arrives. A copy
// that outlives its frame's ack (a delayed original overtaken by its
// retransmission, an injected duplicate) still provokes an ack at the
// sender, only a wire latency after the arrival: inside the lookahead, so
// the sender must not be running ahead meanwhile.
func (fs *faultState) attempt(sendEnd sim.Time, fr *relFrame, fl *flight) {
	n := fs.n
	from, to := fr.msg.From, fr.msg.To
	if fl == nil {
		fl = n.newFlight(fr.msg)
		fl.reply = fr.reply
	}
	fl.rel = true
	fl.seq = fr.seq
	fl.nominal = fr.nominal

	if fs.plan.Drop > 0 && fs.roll(pDrop, sendEnd, from, to, fr.seq, fr.attempt) < fs.plan.Drop {
		fs.stats.Dropped++
		n.tr.Drop(sendEnd, from, to, fr.msg.Kind, fr.attempt)
		n.release(fl)
	} else {
		var delay sim.Time
		if fs.plan.Delay > 0 && fs.roll(pDelayHit, sendEnd, from, to, fr.seq, fr.attempt) < fs.plan.Delay {
			delay = 1 + sim.Time(fs.roll(pDelayAmt, sendEnd, from, to, fr.seq, fr.attempt)*float64(delayMax))
			fs.stats.Delayed++
		}
		n.procs[from].AddInbound(1)
		n.putOnWire(sendEnd+delay, fl)
		if fs.plan.Dup > 0 && fs.roll(pDup, sendEnd, from, to, fr.seq, fr.attempt) < fs.plan.Dup {
			fs.stats.Duplicated++
			dup := n.newFlight(fr.msg)
			dup.reply = fr.reply
			dup.rel = true
			dup.seq = fr.seq
			dup.nominal = fr.nominal
			d2 := 1 + sim.Time(fs.roll(pDupDelay, sendEnd, from, to, fr.seq, fr.attempt)*float64(delayMax))
			n.procs[from].AddInbound(1)
			n.putOnWire(sendEnd+d2, dup)
		}
	}
	n.sim.ScheduleTimer(sendEnd+timeout(fr.attempt), fr, nil)
}

// Fire is the retransmission check armed by each attempt. When the frame was
// acked meanwhile, this was its last pending timer, and the frame goes back
// to the free list. Otherwise the frame is retransmitted:
// the sender's CPU is charged for the repeated programmed I/O (landing in
// virtual time whether the sender is computing or blocked), the traffic
// counters grow like any real resend, and the next attempt is launched with
// a doubled timeout.
func (fr *relFrame) Fire(at sim.Time) {
	fs := fr.fs
	if fr.acked {
		*fr = relFrame{next: fs.freeFrames}
		fs.freeFrames = fr
		return
	}
	from, to := fr.msg.From, fr.msg.To
	if fr.attempt >= maxRetries {
		panic(fmt.Sprintf("fabric: reliable delivery gave up: %d->%d seq %d (kind %d) unacked after %d attempts",
			from, to, fr.seq, fr.msg.Kind, fr.attempt+1))
	}
	fr.attempt++
	fs.stats.Retransmits++
	n := fs.n
	total := n.account(from, fr.msg.Size)
	n.tr.Retransmit(at, from, to, fr.msg.Kind, fr.attempt)
	cost := n.cm.MsgCost(total)
	n.tr.Recovery(at, from, cost)
	n.procs[from].InjectWork(cost)
	fs.attempt(at+cost, fr, nil)
}

// arrive handles a reliable-sublayer frame reaching its destination: discard
// duplicates, park out-of-order frames, deliver in-order ones (draining the
// reorder buffer behind them), and ack what we have so the sender's
// retransmission clock stops.
func (fs *faultState) arrive(fl *flight, at sim.Time) {
	n := fs.n
	m := fl.msg
	from, to, seq := m.From, m.To, fl.seq
	lk := fs.link(from, to)
	n.procs[from].AddInbound(-1) // the copy is off the wire (see attempt)
	switch {
	case seq < lk.deliverSeq || lk.holds(seq):
		fs.stats.DupsDropped++
		n.tr.DupDrop(at, from, to, m.Kind)
		n.release(fl)
	case seq != lk.deliverSeq:
		fs.stats.OutOfOrder++
		lk.insert(heldFrame{seq: seq, msg: m, reply: fl.reply, nominal: fl.nominal})
		n.release(fl)
	default:
		lk.deliverSeq++
		fs.deliver(fl, at)
		for len(lk.held) > 0 && lk.held[0].seq == lk.deliverSeq {
			hf := lk.held[0]
			copy(lk.held, lk.held[1:])
			lk.held = lk.held[:len(lk.held)-1]
			lk.deliverSeq++
			nfl := n.newFlight(hf.msg)
			nfl.reply = hf.reply
			nfl.nominal = hf.nominal
			fs.deliver(nfl, at)
		}
	}
	// The ack carries the link's updated cumulative edge plus the specific
	// sequence that just arrived (so a buffered out-of-order frame is acked
	// too, stopping its retransmission).
	fs.sendAck(at, from, to, seq)
}

// deliver hands one in-order frame to its destination — the handler for
// requests, the waiting caller for replies — accounting the recovery delay
// against the frame's fault-free arrival time.
func (fs *faultState) deliver(fl *flight, at sim.Time) {
	if at > fl.nominal {
		fs.stats.RecoveryWait += at - fl.nominal
		fs.n.tr.Recovery(at, fl.msg.To, at-fl.nominal)
	}
	fl.rel = false
	fl.Fire(at)
}

// ackTimer is one in-flight acknowledgement for the data link from->to:
// below is the receiver's cumulative delivery edge (everything before it has
// been delivered), got the specific sequence that triggered the ack.
type ackTimer struct {
	fs       *faultState
	next     *ackTimer // the free list's next timer
	from, to int
	below    uint32
	got      uint32
}

// Fire lands the ack at the data sender: every frame covered by it leaves
// the window, so its pending retransmission timer becomes a no-op, and lifts
// the sender's inbound mark (see send). The timer then goes back to the free
// list.
func (ak *ackTimer) Fire(at sim.Time) {
	fs := ak.fs
	fs.n.tr.Ack(at, ak.to, ak.from, int(ak.got))
	fs.n.procs[ak.from].AddInbound(-fs.link(ak.from, ak.to).ack(ak.below, ak.got))
	ak.next, fs.freeAcks = fs.freeAcks, ak
}

// sendAck emits the acknowledgement for a frame that just arrived on the
// data link from->to. Acks are NIC-level control frames: they consume no
// processor CPU and no sequence numbers, travel back after one wire latency,
// are subject to the same loss and delay injection as data (a lost ack is
// repaired by the data retransmission provoking a fresh one), and are
// idempotent, so they need no reliability of their own. The ack is aimed at
// the data sender, whose window it updates and whose trace buffer it writes.
func (fs *faultState) sendAck(at sim.Time, from, to int, got uint32) {
	lk := fs.link(from, to)
	fs.stats.Acks++
	lk.ackDraw++
	draw := lk.ackDraw
	if fs.plan.Drop > 0 && fs.roll(pAckDrop, at, from, to, got, int(draw)) < fs.plan.Drop {
		fs.stats.AcksLost++
		return
	}
	var delay sim.Time
	if fs.plan.Delay > 0 && fs.roll(pAckDelayHit, at, from, to, got, int(draw)) < fs.plan.Delay {
		delay = 1 + sim.Time(fs.roll(pAckDelayAmt, at, from, to, got, int(draw))*float64(delayMax))
	}
	ak := fs.freeAcks
	if ak != nil {
		fs.freeAcks = ak.next
	} else {
		ak = &ackTimer{}
	}
	*ak = ackTimer{fs: fs, from: from, to: to, below: lk.deliverSeq, got: got}
	fs.n.sim.ScheduleTimer(at+fs.n.wireLatency(to, from)+delay, ak, fs.n.procs[from])
}

// EnableFaults switches the network onto the seeded fault plan and enables
// the reliable-delivery sublayer for every directed link. Must be called
// before the simulation starts. The plan is validated; with faults off the
// fabric stays event-for-event identical to the fault-free seed.
func (n *Network) EnableFaults(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if n.clos {
		return fmt.Errorf("fabric: fault plan cannot be combined with a topology")
	}
	np := len(n.procs)
	n.faults = &faultState{
		n:      n,
		plan:   plan,
		nprocs: np,
		links:  make([]relLink, np*np),
	}
	// The lookahead New declared still holds: every sublayer event that can
	// act on a processor sooner is aimed at it, or falls while the sublayer
	// marks it inbound (send, attempt).
	return nil
}

// FaultStats returns the fault-injection and recovery counters (zero-valued
// with faults off).
func (n *Network) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}
