package syncmgr

import (
	"slices"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/sim"
)

// nilHooks attach no consistency traffic: pure synchronization.
type nilHooks struct{}

func (nilHooks) MakeLockRequest(core.LockID, Mode) (fabric.Payload, int) {
	return fabric.Payload{}, 0
}
func (nilHooks) MakeLockGrant(core.LockID, Mode, fabric.Payload, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) ApplyLockGrant(core.LockID, Mode, fabric.Payload) sim.Time { return 0 }
func (nilHooks) LocalReacquire(core.LockID, Mode)                          {}

func (nilHooks) MakeArrival(core.BarrierID) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) AbsorbArrival(core.BarrierID, int, fabric.Payload) sim.Time { return 0 }
func (nilHooks) PrepareDepartures(core.BarrierID) sim.Time                  { return 0 }
func (nilHooks) MakeDeparture(core.BarrierID, int) (fabric.Payload, int, sim.Time) {
	return fabric.Payload{}, 0, 0
}
func (nilHooks) ApplyDeparture(core.BarrierID, fabric.Payload) sim.Time { return 0 }

type cluster struct {
	s     *sim.Simulator
	net   *fabric.Network
	locks []*LockMgr
	bars  []*BarrierMgr
	cnts  []*core.Stats
}

// newCluster spawns n processors each running body(proc index).
func newCluster(t *testing.T, n int, body func(c *cluster, i int)) *cluster {
	t.Helper()
	c := &cluster{s: sim.New()}
	c.net = fabric.New(c.s, fabric.DefaultCostModel(), n)
	c.locks = make([]*LockMgr, n)
	c.bars = make([]*BarrierMgr, n)
	c.cnts = make([]*core.Stats, n)
	for i := 0; i < n; i++ {
		i := i
		p := c.s.Spawn("proc", func(p *sim.Proc) { body(c, i) })
		c.cnts[i] = &core.Stats{}
		c.locks[i] = NewLockMgr(p, c.net, n, nilHooks{}, c.cnts[i])
		c.bars[i] = NewBarrierMgr(p, c.net, n, nilHooks{}, c.cnts[i])
		lm, bm := c.locks[i], c.bars[i]
		c.net.Attach(p, func(hc *fabric.HandlerCtx, m fabric.Msg) {
			if lm.Handle(hc, m) || bm.Handle(hc, m) {
				return
			}
			t.Errorf("unhandled message kind %d", m.Kind)
		})
	}
	return c
}

func TestMutualExclusion(t *testing.T) {
	const n = 4
	inCS := 0
	maxCS := 0
	count := 0
	c := newCluster(t, n, func(c *cluster, i int) {
		for k := 0; k < 5; k++ {
			c.locks[i].Acquire(1, Exclusive)
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			count++
			c.locks[i].p.Sleep(50 * sim.Microsecond)
			inCS--
			c.locks[i].Release(1)
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxCS != 1 {
		t.Errorf("max procs in critical section = %d, want 1", maxCS)
	}
	if count != n*5 {
		t.Errorf("count = %d, want %d", count, n*5)
	}
}

func TestLockMessageCounts(t *testing.T) {
	// Sequential, deterministic acquisition pattern on lock 0 (manager=p0).
	c := newCluster(t, 3, func(c *cluster, i int) {
		lm := c.locks[i]
		switch i {
		case 1:
			// p0 is manager and initial owner: request p1->p0, grant p0->p1.
			lm.Acquire(0, Exclusive)
			lm.Release(0)
		case 2:
			lm.p.Sleep(50 * sim.Millisecond) // let p1 finish first
			// request p2->p0 (manager), forward p0->p1 (last), grant p1->p2.
			lm.Acquire(0, Exclusive)
			lm.Release(0)
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.net.Total().Msgs; got != 5 {
		t.Errorf("total messages = %d, want 5 (2 for p1's acquire, 3 for p2's)", got)
	}
}

func TestLocalReacquireNoMessages(t *testing.T) {
	c := newCluster(t, 2, func(c *cluster, i int) {
		if i != 0 {
			return
		}
		lm := c.locks[i] // lock 0's manager is p0 = initial owner
		for k := 0; k < 3; k++ {
			lm.Acquire(0, Exclusive)
			lm.Release(0)
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.net.Total().Msgs; got != 0 {
		t.Errorf("messages = %d, want 0", got)
	}
	if c.cnts[0].RemoteAcquires != 0 || c.cnts[0].LockAcquires != 3 {
		t.Errorf("counters = %+v", c.cnts[0])
	}
}

func TestConcurrentReaders(t *testing.T) {
	readers := 0
	maxReaders := 0
	c := newCluster(t, 4, func(c *cluster, i int) {
		if i == 0 {
			return // p0 is owner; stays out
		}
		c.locks[i].Acquire(0, ReadOnly)
		readers++
		if readers > maxReaders {
			maxReaders = readers
		}
		c.locks[i].p.Sleep(10 * sim.Millisecond)
		readers--
		c.locks[i].Release(0)
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxReaders < 2 {
		t.Errorf("max concurrent readers = %d, want >= 2", maxReaders)
	}
	if c.cnts[1].ReadLockAcquires != 1 {
		t.Errorf("counters = %+v", c.cnts[1])
	}
}

func TestQueuedExclusiveGrantedAtRelease(t *testing.T) {
	var holdEnd, p2Got sim.Time
	c := newCluster(t, 3, func(c *cluster, i int) {
		lm := c.locks[i]
		switch i {
		case 0:
			lm.Acquire(3, Exclusive) // manager of lock 3 is p0 (3%3)
			lm.p.Sleep(20 * sim.Millisecond)
			holdEnd = lm.p.Now()
			lm.Release(3)
		case 2:
			lm.p.Sleep(time1ms())
			lm.Acquire(3, Exclusive)
			p2Got = lm.p.Now()
			lm.Release(3)
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	if p2Got <= holdEnd {
		t.Errorf("p2 acquired at %v, before release at %v", p2Got, holdEnd)
	}
}

func time1ms() sim.Time { return sim.Millisecond }

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5
	after := make([]sim.Time, n)
	var latestArrival sim.Time
	c := newCluster(t, n, func(c *cluster, i int) {
		c.bars[i].p.Sleep(sim.Time(i+1) * sim.Millisecond)
		if now := c.bars[i].p.Now(); now > latestArrival {
			latestArrival = now
		}
		c.bars[i].Wait(0)
		after[i] = c.bars[i].p.Now()
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range after {
		if tm < latestArrival {
			t.Errorf("proc %d left barrier at %v, before last arrival %v", i, tm, latestArrival)
		}
	}
	if c.cnts[2].Barriers != 1 {
		t.Errorf("barrier count = %d", c.cnts[2].Barriers)
	}
}

func TestBarrierReusable(t *testing.T) {
	const n = 3
	const rounds = 4
	counts := make([]int, n)
	c := newCluster(t, n, func(c *cluster, i int) {
		for r := 0; r < rounds; r++ {
			c.bars[i].p.Sleep(sim.Time(i*100+1) * sim.Microsecond)
			c.bars[i].Wait(7) // manager is 7%3 = p1
			counts[i]++
			// Everyone must have completed the same number of rounds.
			for j := 0; j < n; j++ {
				if counts[j] < counts[i]-1 || counts[j] > counts[i] {
					t.Errorf("round skew: counts=%v", counts)
				}
			}
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i] != rounds {
			t.Errorf("proc %d did %d rounds", i, counts[i])
		}
	}
}

func TestBarrierMessageCount(t *testing.T) {
	const n = 4
	c := newCluster(t, n, func(c *cluster, i int) {
		c.bars[i].Wait(0)
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
	// n-1 arrivals + n-1 departures.
	if got := c.net.Total().Msgs; got != int64(2*(n-1)) {
		t.Errorf("messages = %d, want %d", got, 2*(n-1))
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	c := newCluster(t, 1, func(c *cluster, i int) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		c.locks[0].Release(0)
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHoldingQuery(t *testing.T) {
	c := newCluster(t, 1, func(c *cluster, i int) {
		lm := c.locks[0]
		if h, _ := lm.Holding(0); h {
			t.Error("should not hold before acquire")
		}
		lm.Acquire(0, ReadOnly)
		if h, m := lm.Holding(0); !h || m != ReadOnly {
			t.Error("should hold read-only")
		}
		lm.Release(0)
		if h, _ := lm.Holding(0); h {
			t.Error("should not hold after release")
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLateReaderIsServed pins Release's read-grant loop against a reader that
// queues while it runs. No barrier separates the readers from the writer:
//
//	p1 holds lock 0 (manager p0) exclusively; p2's read request queues on it.
//	p0 — the manager — read-acquires: it routes itself to p1 and starts its send.
//	p3's exclusive request reaches p0 mid-send. The handler forwards it at
//	once and its CPU time pushes p0's own send back, so on the same FIFO
//	link the later-routed exclusive overtakes the earlier-routed read and
//	queues on p1 first.
//	p1 releases: the grant to p2 sleeps, and p0's read arrives meanwhile —
//	the queue is still attached and an exclusive waits in it, so Handle
//	enqueues.
//
// That reader must be granted by the same loop, not wiped with the queue
// (p0 would block forever); then the exclusive moves to p3.
func TestLateReaderIsServed(t *testing.T) {
	const us = sim.Microsecond
	var order []int // acquisitions of lock 0 in completion order
	c := newCluster(t, 4, func(c *cluster, i int) {
		lm := c.locks[i]
		// Every sleep below is stretched by the handlers the sleeper fields
		// meanwhile: 150 µs to queue a request, ~403 µs to grant or forward one.
		// A message is ~253 µs of sender CPU and 100 µs of wire.
		acquire := func(after sim.Time, mode Mode) {
			lm.p.Sleep(after)
			lm.Acquire(0, mode)
			order = append(order, i)
		}
		switch i {
		case 1:
			acquire(0, Exclusive)
			lm.p.Sleep(10000*us - lm.p.Now()) // queues p2 and p3 meanwhile: releases at 10.3 ms
			lm.Release(0)                     // the grant to p2 sleeps until ~10.553 ms
		case 2:
			acquire(2000*us, ReadOnly)
			lm.Release(0)
		case 0:
			// Grants p1 and forwards p2 meanwhile: routes itself to p1 at ~9.6 ms.
			// Its send would end at ~9.853 ms; forwarding p3 pushes that to
			// ~10.256 ms, and the request reaches p1 at ~10.356 ms.
			acquire(8794*us, ReadOnly)
			lm.Release(0)
		case 3:
			// Reaches p0 at ~9.64 ms, is forwarded, queues on p1 at ~10.143 ms.
			acquire(9287*us, Exclusive)
			lm.Release(0)
		}
	})
	if err := c.s.Run(); err != nil {
		t.Fatalf("the late reader was dropped with the queue: %v", err)
	}
	if want := []int{1, 2, 0, 3}; !slices.Equal(order, want) {
		t.Errorf("lock 0 went to %v, want %v: both readers, then the writer", order, want)
	}
}
