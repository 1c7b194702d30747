package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"testing"
)

// fft1dRecurrence is the transform fft1d replaced, kept as its oracle: the
// bit-reversal permutation computed inline and the twiddles rebuilt by
// wk *= w inside every butterfly block.
func fft1dRecurrence(x []complex128) {
	n := len(x)
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		m := n >> 1
		for m >= 1 && j&m != 0 {
			j &^= m
			m >>= 1
		}
		j |= m
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		w := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		for start := 0; start < n; start += size {
			wk := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * wk
				x[start+k] = a + b
				x[start+k+half] = a - b
				wk *= w
			}
		}
	}
}

// sameFFT transforms a copy of x with fft1d and one with the oracle and
// reports the first element whose real or imaginary bits differ.
func sameFFT(t *testing.T, x []complex128) {
	t.Helper()
	got := append([]complex128(nil), x...)
	want := append([]complex128(nil), x...)
	fft1d(got)
	fft1dRecurrence(want)
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("n=%d: X[%d] = %v, the recurrence gives %v", len(x), i, got[i], want[i])
		}
	}
}

func randomSignal(rng *lcg, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.f64()-0.5, rng.f64()-0.5)
	}
	return x
}

// TestFFT1DMatchesRecurrence pins fft1d's plan to the loop it replaced, bit
// for bit, at every power of two from 2 to 1024.
func TestFFT1DMatchesRecurrence(t *testing.T) {
	rng := newLCG(48)
	for n := 2; n <= 1024; n <<= 1 {
		for trial := 0; trial < 20; trial++ {
			sameFFT(t, randomSignal(rng, n))
		}
	}
}

// TestFFT1DConcurrentFirstUse builds one length's plan from several
// goroutines at once, as two sweep workers do; run it under -race.
func TestFFT1DConcurrentFirstUse(t *testing.T) {
	const n = 128
	fftPlans[bits.TrailingZeros(n)] = fftPlanSlot{} // forget the plan: the next use is the first
	want := randomSignal(newLCG(7), n)
	fft1dRecurrence(want)
	var wg sync.WaitGroup
	got := make([][]complex128, 4)
	for g := range got {
		got[g] = randomSignal(newLCG(7), n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fft1d(got[g])
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d: X[%d] = %v, want %v", g, i, got[g][i], want[i])
			}
		}
	}
}

// TestFFT1DPlanHitAllocs pins the plan lookup of a warm length to no
// allocation: every simulated node's 3D-FFT program calls fft1d per line.
func TestFFT1DPlanHitAllocs(t *testing.T) {
	x := randomSignal(newLCG(3), 64)
	fft1d(x)
	if a := testing.AllocsPerRun(100, func() { fft1d(x) }); a != 0 {
		t.Errorf("a warm fft1d allocated %v objects, want 0", a)
	}
}

// FuzzFFT1D feeds arbitrary float64 bit patterns (NaNs, infinities, signed
// zeros, subnormals included) to fft1d and the recurrence at a power of two
// from 2 to 1024 chosen by the input.
func FuzzFFT1D(f *testing.F) {
	f.Add(uint8(4), []byte{})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(9), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, lg uint8, data []byte) {
		n := 2 << (lg % 10)
		x := make([]complex128, n)
		word := func(i int) float64 {
			if 8*i+8 > len(data) {
				return float64(i)
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for i := range x {
			x[i] = complex(word(2*i), word(2*i+1))
		}
		sameFFT(t, x)
	})
}

// BenchmarkFFT1D reports the time of one transform at the 3D-FFT program's
// line lengths, on a warm plan. Each iteration first restores the input
// (a copy of n elements), so the transform never runs on overflowed values.
func BenchmarkFFT1D(b *testing.B) {
	for _, n := range []int{32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randomSignal(newLCG(1), n)
			x := make([]complex128, n)
			fft1d(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, src)
				fft1d(x)
			}
		})
	}
}
