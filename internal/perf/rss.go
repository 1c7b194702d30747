package perf

import (
	"bytes"
	"os"
	"strconv"
)

// PeakRSSBytes returns the process's resident-set high-water mark (VmHWM in
// /proc/self/status); 0 where that file is absent. Unlike the registry's
// peak heap, it counts memory outside the Go heap — the copy-on-write node
// images past 8 processors (internal/mem) live there — and it is a
// process-wide mark, not a per-cell one: ResetPeakRSS starts it afresh.
func PeakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// ResetPeakRSS lowers the resident-set high-water mark to the current
// resident set (writing 5 to /proc/self/clear_refs), so that PeakRSSBytes
// reads the peak of what runs next. Where the kernel refuses it returns the
// error, and the mark stays the process's lifetime peak.
func ResetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
