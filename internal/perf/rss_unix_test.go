//go:build unix

package perf

import (
	"os"
	"syscall"
	"testing"
)

// TestPeakRSS: the resident high-water mark covers memory the Go heap does
// not hold — a page-touched anonymous mapping raises it — and a reset lowers
// it again. Where /proc is absent it reads 0.
func TestPeakRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		if PeakRSSBytes() != 0 {
			t.Fatal("PeakRSSBytes is nonzero without /proc/self/status")
		}
		t.Skip("no /proc/self/status")
	}
	resetErr := ResetPeakRSS()
	before := PeakRSSBytes()
	if before <= 0 {
		t.Fatalf("peak RSS %d, want > 0", before)
	}
	const size = 64 << 20
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i += 4096 {
		data[i] = 1
	}
	raised := PeakRSSBytes()
	if err := syscall.Munmap(data); err != nil {
		t.Fatal(err)
	}
	if raised < before+size/2 {
		t.Errorf("touching %d MiB outside the heap raised the peak RSS from %d to only %d", size>>20, before, raised)
	}
	if resetErr != nil {
		t.Skipf("no reset: %v", resetErr)
	}
	if err := ResetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if after := PeakRSSBytes(); after >= raised {
		t.Errorf("a reset left the peak RSS at %d, not below the %d the unmapped memory raised it to", after, raised)
	}
}
