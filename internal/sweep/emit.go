package sweep

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// csvHeader names the flat CSV columns, one per Record field with the full
// core.Stats expanded.
var csvHeader = []string{
	"variant", "contention", "app", "impl", "nprocs",
	"seq_sec", "time_sec", "speedup",
	"msgs", "bytes", "faults", "access_misses",
	"lock_acquires", "read_lock_acquires", "remote_acquires", "barriers",
	"diffs_created", "twins_made", "stamp_runs_sent", "link_wait_sec",
	"fault", "retransmits", "dups_dropped", "recovery_wait_sec",
}

// stallHeader names the stall-breakdown columns, appended to csvHeader only
// when the sweep ran with Grid.Breakdown — non-breakdown CSV output stays
// byte-identical to sweeps that predate the profiler.
var stallHeader = []string{
	"stall_compute_sec", "stall_trap_diff_sec", "stall_page_fetch_sec",
	"stall_lock_wait_sec", "stall_barrier_wait_sec", "stall_link_wait_sec",
	"stall_recovery_sec",
}

// WriteCSV emits one flat row per record, in record order. When any record
// carries a stall breakdown, the stall columns are appended (zeros for
// records without one).
func WriteCSV(w io.Writer, recs []Record) error {
	withStall := false
	for _, r := range recs {
		if r.Stall != nil {
			withStall = true
			break
		}
	}
	cw := csv.NewWriter(w)
	header := csvHeader
	if withStall {
		header = append(append([]string(nil), csvHeader...), stallHeader...)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("sweep: csv: %w", err)
	}
	for _, r := range recs {
		row := []string{
			r.Variant,
			strconv.FormatBool(r.Contention),
			r.App,
			r.Impl,
			strconv.Itoa(r.NProcs),
			fmt.Sprintf("%.6f", r.Seq.Seconds()),
			fmt.Sprintf("%.6f", r.Stats.Time.Seconds()),
			fmt.Sprintf("%.3f", r.Speedup),
			strconv.FormatInt(r.Stats.Msgs, 10),
			strconv.FormatInt(r.Stats.Bytes, 10),
			strconv.FormatInt(r.Stats.Faults, 10),
			strconv.FormatInt(r.Stats.AccessMisses, 10),
			strconv.FormatInt(r.Stats.LockAcquires, 10),
			strconv.FormatInt(r.Stats.ReadLockAcquires, 10),
			strconv.FormatInt(r.Stats.RemoteAcquires, 10),
			strconv.FormatInt(r.Stats.Barriers, 10),
			strconv.FormatInt(r.Stats.DiffsCreated, 10),
			strconv.FormatInt(r.Stats.TwinsMade, 10),
			strconv.FormatInt(r.Stats.StampRunsSent, 10),
			fmt.Sprintf("%.6f", r.LinkWait.Seconds()),
			faultLabel(r),
			strconv.FormatInt(r.Retransmits, 10),
			strconv.FormatInt(r.DupsDropped, 10),
			fmt.Sprintf("%.6f", r.RecoveryWait.Seconds()),
		}
		if withStall {
			s := r.Stall
			if s == nil {
				s = &StallBreakdown{}
			}
			row = append(row,
				fmt.Sprintf("%.6f", s.Compute.Seconds()),
				fmt.Sprintf("%.6f", s.TrapDiff.Seconds()),
				fmt.Sprintf("%.6f", s.PageFetch.Seconds()),
				fmt.Sprintf("%.6f", s.LockWait.Seconds()),
				fmt.Sprintf("%.6f", s.BarrierWait.Seconds()),
				fmt.Sprintf("%.6f", s.LinkWait.Seconds()),
				fmt.Sprintf("%.6f", s.Recovery.Seconds()),
			)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("sweep: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("sweep: csv: %w", err)
	}
	return nil
}

// WriteJSONL emits one JSON object per line per record, in record order.
// Times are nanoseconds of simulated time.
func WriteJSONL(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("sweep: jsonl: %w", err)
		}
	}
	return nil
}

// WriteMarkdown renders the sweep as one table per variant, in record order.
func WriteMarkdown(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Sensitivity sweep\n")
	current := ""
	for _, r := range recs {
		if r.Variant != current {
			current = r.Variant
			contention := "off"
			if r.Contention {
				contention = "on"
			}
			fmt.Fprintf(bw, "\n## Variant `%s` (contention %s)\n\n", r.Variant, contention)
			fmt.Fprintf(bw, "| App | Impl | Procs | Time (s) | Speedup | Msgs | MB |\n")
			fmt.Fprintf(bw, "|---|---|---:|---:|---:|---:|---:|\n")
		}
		fmt.Fprintf(bw, "| %s | %s | %d | %.3f | %.2f | %d | %.2f |\n",
			r.App, r.Impl, r.NProcs, r.Stats.Time.Seconds(), r.Speedup, r.Stats.Msgs, r.Stats.MB())
	}
	return bw.Flush()
}

// WriteBaselineReport renders the sensitivity verdict: per variant, each
// cell's execution time against the same cell under the baseline variant,
// plus the EC-vs-LRC winner flips the variant causes — the question the
// paper's Section 8 asks about faster platforms. Cells with no baseline
// counterpart are skipped.
func WriteBaselineReport(w io.Writer, recs []Record, baseline string) error {
	base := cellIndex(recs, baseline)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Sensitivity vs `%s`\n", baseline)
	if len(base) == 0 {
		fmt.Fprintf(bw, "\nNo `%s` cells in this sweep; nothing to compare.\n", baseline)
		return bw.Flush()
	}
	current := ""
	for _, r := range recs {
		if r.Variant == baseline {
			continue
		}
		b, ok := base[cellKey{r.App, r.Impl, r.NProcs}]
		if !ok {
			continue
		}
		if r.Variant != current {
			current = r.Variant
			fmt.Fprintf(bw, "\n## `%s` vs `%s`\n\n", r.Variant, baseline)
			fmt.Fprintf(bw, "| App | Impl | Procs | %s (s) | %s (s) | Δ time | Speedup %s → %s |\n",
				baseline, r.Variant, baseline, r.Variant)
			fmt.Fprintf(bw, "|---|---|---:|---:|---:|---:|---:|\n")
		}
		delta := 100 * (float64(r.Stats.Time) - float64(b.Stats.Time)) / float64(b.Stats.Time)
		fmt.Fprintf(bw, "| %s | %s | %d | %.3f | %.3f | %+.1f%% | %.2f → %.2f |\n",
			r.App, r.Impl, r.NProcs, b.Stats.Time.Seconds(), r.Stats.Time.Seconds(),
			delta, b.Speedup, r.Speedup)
	}
	writeFaultDegradation(bw, recs, base, baseline)
	writeVerdictFlips(bw, recs, baseline)
	return bw.Flush()
}

// faultLabel canonicalizes a record's fault column for reports: "off" for
// fault-free records (whose Fault field is empty so it stays out of JSON).
func faultLabel(r Record) string {
	if r.Fault == "" {
		return "off"
	}
	return r.Fault
}

// writeFaultDegradation renders the lossy-network degradation table: every
// faulted cell against its baseline counterpart, with the recovery traffic
// and the virtual time the reliable sublayer spent waiting. Silent when the
// sweep has no faulted records. base is the baseline's cells (cellIndex).
func writeFaultDegradation(bw *bufio.Writer, recs []Record, base map[cellKey]Record, baseline string) {
	wrote := false
	for _, r := range recs {
		if r.Fault == "" {
			continue
		}
		b, ok := base[cellKey{r.App, r.Impl, r.NProcs}]
		if !ok {
			continue
		}
		if !wrote {
			wrote = true
			fmt.Fprintf(bw, "\n## Fault degradation vs `%s`\n\n", baseline)
			fmt.Fprintf(bw, "| Variant | App | Impl | Procs | Δ time | Retransmits | Dups dropped | Recovery wait (s) |\n")
			fmt.Fprintf(bw, "|---|---|---|---:|---:|---:|---:|---:|\n")
		}
		delta := 100 * (float64(r.Stats.Time) - float64(b.Stats.Time)) / float64(b.Stats.Time)
		fmt.Fprintf(bw, "| %s | %s | %s | %d | %+.1f%% | %d | %d | %.4f |\n",
			r.Variant, r.App, r.Impl, r.NProcs, delta, r.Retransmits, r.DupsDropped, r.RecoveryWait.Seconds())
	}
}

// writeVerdictFlips reports where a variant changes the paper's headline
// verdict: for each (app, nprocs), the better model (best EC vs best LRC
// time) under the baseline against the better model under each variant.
func writeVerdictFlips(bw *bufio.Writer, recs []Record, baseline string) {
	// Variants and (app, nprocs) cells in order of first appearance; a group
	// appears where its first record does, so either order is the records'.
	var variants []string
	var cells []group
	winners := make(map[group]string)
	for _, m := range bestPerModel(recs) {
		if !slices.Contains(variants, m.variant) {
			variants = append(variants, m.variant)
		}
		if c := (group{app: m.app, nprocs: m.nprocs}); !slices.Contains(cells, c) {
			cells = append(cells, c)
		}
		if m.ec != nil && m.lrc != nil {
			winners[m.group] = m.winner()
		}
	}
	var flips []string
	for _, v := range variants {
		if v == baseline {
			continue
		}
		for _, c := range cells {
			b, okB := winners[group{baseline, c.app, c.nprocs}]
			n, okN := winners[group{v, c.app, c.nprocs}]
			if okB && okN && b != n {
				flips = append(flips, fmt.Sprintf("| %s | %s | %d | %s | %s |", v, c.app, c.nprocs, b, n))
			}
		}
	}
	fmt.Fprintf(bw, "\n## Verdict flips\n\n")
	if len(flips) == 0 {
		fmt.Fprintf(bw, "No variant changes the best-EC vs best-LRC winner for any cell.\n")
		return
	}
	fmt.Fprintf(bw, "| Variant | App | Procs | %s winner | Variant winner |\n", baseline)
	fmt.Fprintf(bw, "|---|---|---:|---|---|\n")
	for _, f := range flips {
		fmt.Fprintf(bw, "%s\n", f)
	}
}
