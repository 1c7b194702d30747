package wtrap

import (
	"testing"

	"ecvslrc/internal/mem"
)

// TestCompareWordsAllocs guards the diff kernel: comparing an unchanged page
// against its twin must not allocate (the common steady-state case — most
// twinned pages are written sparsely, and identical stretches are skipped
// wholesale).
func TestCompareWordsAllocs(t *testing.T) {
	cur := make([]byte, mem.PageSize)
	old := make([]byte, mem.PageSize)
	avg := testing.AllocsPerRun(100, func() {
		runs, compared := compareWords(nil, cur, old, 0)
		if runs != nil || compared != mem.PageWords {
			t.Fatalf("unexpected result: %v, %d", runs, compared)
		}
	})
	if avg > 0 {
		t.Errorf("compareWords on identical pages allocates %.2f objects per run, want 0", avg)
	}
}
