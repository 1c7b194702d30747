package apps

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRefMemoConcurrentGet has parallel first requests for one size ask
// together: exactly one solve runs, and every caller gets its result.
func TestRefMemoConcurrentGet(t *testing.T) {
	var m refMemo[[2]int, *int]
	var solves atomic.Int32
	solve := func() *int {
		solves.Add(1)
		time.Sleep(time.Millisecond) // widen the window for a second solve
		return new(int)
	}
	const callers = 8
	got := make([]*int, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = m.get([2]int{3, 4}, solve)
		}()
	}
	start.Done()
	done.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("%d solves for one size, want 1", n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, p, got[0])
		}
	}
	if other := m.get([2]int{3, 5}, solve); other == got[0] || solves.Load() != 2 {
		t.Error("a second size did not get a solve of its own")
	}
}

// TestReferenceHitDoesNotAllocate reads each memoized reference after Init
// warmed it: Verify and SOR's in-program band check pay no allocation.
func TestReferenceHitDoesNotAllocate(t *testing.T) {
	sor, water, barnes, fft := newSOR(Test, false), newWater(Test, false), newBarnes(Test), newFFT(Test)
	for name, hit := range map[string]func(){
		"SOR":        func() { sor.reference() },
		"Water":      func() { water.reference() },
		"Barnes-Hut": func() { barnes.reference() },
		"3D-FFT":     func() { fft.reference() },
	} {
		hit()
		if n := testing.AllocsPerRun(100, hit); n != 0 {
			t.Errorf("%s: a reference hit allocates %v times", name, n)
		}
	}
}
