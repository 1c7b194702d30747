package apps

import (
	"math"
	"testing"
)

// sorNaive is the solver SOR.solve replaced, kept as its oracle: every
// (i, j) of every row, skipping the other colour's elements, on separately
// allocated rows.
func sorNaive(a *SOR) [][]float32 {
	m := make([][]float32, a.rows)
	for i := range m {
		m[i] = make([]float32, a.cols)
		for j := range m[i] {
			m[i][j] = a.initValue(i, j)
		}
	}
	for it := 0; it < a.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < a.rows-1; i++ {
				for j := 1; j < a.cols-1; j++ {
					if (i+j)%2 == color {
						m[i][j] = (m[i-1][j] + m[i+1][j] + m[i][j-1] + m[i][j+1]) / 4
					}
				}
			}
		}
	}
	return m
}

// TestSORReferenceMatchesNaive pins the verification reference to the naive
// red-black solver, bit for bit, at every scale (paper scale only without
// -short: the naive solve takes about a third of a second there).
func TestSORReferenceMatchesNaive(t *testing.T) {
	scales := []Scale{Test, Bench, Large, Paper}
	if testing.Short() {
		scales = scales[:3]
	}
	for _, s := range scales {
		a := newSOR(s, false)
		got, want := a.solve(), sorNaive(a)
		for i := range want {
			for j := range want[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
					t.Fatalf("%v scale: m[%d][%d] = %v, the naive solver gives %v", s, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// BenchmarkSORReference reports the paper-scale reference solve per stencil
// update, solving afresh on every iteration (the memo is bypassed).
func BenchmarkSORReference(b *testing.B) {
	a := newSOR(Paper, false)
	updates := float64(a.iters) * float64(a.rows-2) * float64(a.cols-2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.solve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*updates), "ns/update")
}
