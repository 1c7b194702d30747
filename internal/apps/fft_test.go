package apps

import (
	"math"
	"math/cmplx"
	"testing"

	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

func TestFFT1DKnownValues(t *testing.T) {
	// FFT of a constant signal concentrates everything in bin 0.
	x := make([]complex128, 8)
	for i := range x {
		x[i] = 1
	}
	fft1d(x)
	if x[0] != 8 {
		t.Errorf("bin 0 = %v, want 8", x[0])
	}
	for i := 1; i < 8; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, x[i])
		}
	}
	// FFT of a unit impulse is flat.
	y := make([]complex128, 8)
	y[0] = 1
	fft1d(y)
	for i := range y {
		if cmplx.Abs(y[i]-1) > 1e-12 {
			t.Errorf("impulse bin %d = %v, want 1", i, y[i])
		}
	}
}

func TestFFT1DParseval(t *testing.T) {
	rng := newLCG(5)
	n := 64
	x := make([]complex128, n)
	var inPower float64
	for i := range x {
		x[i] = complex(rng.f64()-0.5, rng.f64()-0.5)
		inPower += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	fft1d(x)
	var outPower float64
	for i := range x {
		outPower += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if math.Abs(outPower-float64(n)*inPower) > 1e-9*outPower {
		t.Errorf("Parseval violated: out=%v, n*in=%v", outPower, float64(n)*inPower)
	}
}

func TestFFTFlops(t *testing.T) {
	if fftFlops(8) != 5*8*3 {
		t.Errorf("fftFlops(8) = %d", fftFlops(8))
	}
}

func TestFFTAllImpls(t *testing.T) {
	testAllImpls(t, "3D-FFT", 4)
}

// TestFFTLockIDs pins the block-lock numbering: up to 64 processors the ids
// are the paper-scale formula (goldens and lock-manager assignment depend on
// them), and past 64 no two (writer, reader) pairs of either array share an
// id — the fixed 64-wide stride made 128-proc EC cells bind one lock twice.
func TestFFTLockIDs(t *testing.T) {
	for _, np := range []int{4, 8, 64, 65, 128, 256} {
		locks := newFFTLocks(np)
		seen := make(map[core.LockID]bool, 2*np*np)
		for q := 0; q < np; q++ {
			for p := 0; p < np; p++ {
				a, b := locks.lockA(q, p), locks.lockB(q, p)
				if np <= 64 && (a != core.LockID(1+q*64+p) || b != core.LockID(5001+q*64+p)) {
					t.Fatalf("np=%d: lock ids of (%d,%d) drifted from the paper-scale formula: %d, %d", np, q, p, a, b)
				}
				if seen[a] || seen[b] || a == b {
					t.Fatalf("np=%d: (%d,%d) reuses a lock id (%d or %d)", np, q, p, a, b)
				}
				seen[a], seen[b] = true, true
			}
		}
	}
}

// TestFFTAllImplsAbove64Procs runs every implementation past the 64-proc
// band limit, where most processors own no planes and the lock stride widens.
func TestFFTAllImplsAbove64Procs(t *testing.T) {
	testAllImpls(t, "3D-FFT", 128)
}

func TestFFTSequential(t *testing.T) {
	app, _ := New("3D-FFT", Test)
	if _, err := run.RunSeq(app); err != nil {
		t.Fatal(err)
	}
}

// Section 8.1's granularity claim: with 8-byte blocks the write-collection
// scan halves relative to word granularity, so EC-ci at double-word
// granularity must not be slower than the word-granularity variant (and the
// scan accounting must show fewer timestamp runs or equal).
func TestFFTGranularityAblation(t *testing.T) {
	run8, _ := New("3D-FFT", Test)
	r8, err := run.Run(run8, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	run4, _ := New("3D-FFT-w4", Test)
	r4, err := run.Run(run4, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.Time > r4.Stats.Time {
		t.Errorf("8-byte blocks (%v) slower than 4-byte (%v)", r8.Stats.Time, r4.Stats.Time)
	}
}

// The 3D-FFT result of Section 7.2: EC's update protocol ships each
// eight-page transpose block in one exchange, while LRC's invalidate
// protocol faults page by page (2517 vs 7175 messages), so EC wins.
func TestFFTECFewerMessagesThanLRC(t *testing.T) {
	ecApp, _ := New("3D-FFT", Test)
	ecRes, err := run.Run(ecApp, core.Impl{Model: core.EC, Trap: core.CompilerInstr, Collect: core.Timestamps}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	lrcApp, _ := New("3D-FFT", Test)
	lrcRes, err := run.Run(lrcApp, core.Impl{Model: core.LRC, Trap: core.Twinning, Collect: core.Diffs}, 4, fabric.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if ecRes.Stats.Msgs >= lrcRes.Stats.Msgs {
		t.Errorf("EC msgs = %d, LRC msgs = %d: expected EC < LRC (update protocol)",
			ecRes.Stats.Msgs, lrcRes.Stats.Msgs)
	}
	if ecRes.Stats.Time >= lrcRes.Stats.Time {
		t.Errorf("EC time = %v, LRC time = %v: expected EC faster (Table 3 shape)",
			ecRes.Stats.Time, lrcRes.Stats.Time)
	}
}
