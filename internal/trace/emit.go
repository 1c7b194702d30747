package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ecvslrc/internal/sim"
)

// ErrConfig is wrapped by every trace-options validation failure, mirroring
// the harness.Config.Validate convention so callers classify with errors.Is.
var ErrConfig = errors.New("invalid trace options")

// Report names one emittable attribution artifact.
type Report int

const (
	// ReportSummary is the markdown attribution summary (summary.md).
	ReportSummary Report = iota
	// ReportPages is the per-page heat table (pages.csv).
	ReportPages
	// ReportLocks is the per-lock contention table (locks.csv).
	ReportLocks
	// ReportBarriers is the barrier-imbalance table (rendered inside
	// summary.md; selecting it without summary still emits the summary).
	ReportBarriers
	// ReportTimeline is the Chrome trace-event JSON timeline (timeline.json,
	// loadable in chrome://tracing or Perfetto).
	ReportTimeline
	// ReportBinary is the raw binary event trace (trace.bin).
	ReportBinary
	// ReportProfile is the virtual-time profile: the markdown stall-class
	// breakdown (profile.md) plus folded stacks for flamegraph tools
	// (profile.folded).
	ReportProfile
	// ReportCritPath is the critical path: the span table (critpath.csv)
	// plus a Chrome-trace overlay of the path (critpath.json).
	ReportCritPath
	// ReportWhatIf is the what-if projection table (whatif.md): the path
	// re-costed with each stall class zeroed.
	ReportWhatIf
)

// String names the report as the -report flag spells it.
func (r Report) String() string {
	switch r {
	case ReportSummary:
		return "summary"
	case ReportPages:
		return "pages"
	case ReportLocks:
		return "locks"
	case ReportBarriers:
		return "barriers"
	case ReportTimeline:
		return "timeline"
	case ReportBinary:
		return "bin"
	case ReportProfile:
		return "profile"
	case ReportCritPath:
		return "critpath"
	case ReportWhatIf:
		return "whatif"
	}
	return "?"
}

// ReportNames lists the valid -report selector names.
func ReportNames() []string {
	return []string{"summary", "pages", "locks", "barriers", "timeline", "bin", "profile", "critpath", "whatif"}
}

// ParseReports parses a comma-separated report selection ("pages,locks,
// timeline"). Unknown names fail with an error wrapping ErrConfig; an empty
// spec selects every report.
func ParseReports(spec string) ([]Report, error) {
	if strings.TrimSpace(spec) == "" {
		return []Report{ReportSummary, ReportPages, ReportLocks, ReportBarriers, ReportTimeline, ReportBinary,
			ReportProfile, ReportCritPath, ReportWhatIf}, nil
	}
	var out []Report
	seen := make(map[Report]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var r Report
		switch part {
		case "summary":
			r = ReportSummary
		case "pages":
			r = ReportPages
		case "locks":
			r = ReportLocks
		case "barriers":
			r = ReportBarriers
		case "timeline":
			r = ReportTimeline
		case "bin":
			r = ReportBinary
		case "profile":
			r = ReportProfile
		case "critpath":
			r = ReportCritPath
		case "whatif":
			r = ReportWhatIf
		default:
			return nil, fmt.Errorf("trace: %w: unknown report %q (known: %s)",
				ErrConfig, part, strings.Join(ReportNames(), ", "))
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: %w: report list selects nothing", ErrConfig)
	}
	return out, nil
}

// Options configures trace capture and report emission for the CLIs.
type Options struct {
	// Reports selects the artifacts to emit (nil = all).
	Reports []Report
	// OutDir is the artifact directory; empty means "summary to stdout".
	OutDir string
	// Sched enables the scheduler dispatch channel (very voluminous).
	Sched bool
}

// Validate reports whether the options are usable. Errors wrap ErrConfig.
func (o Options) Validate() error {
	if o.OutDir == "" {
		for _, r := range o.Reports {
			if r != ReportSummary && r != ReportBarriers {
				return fmt.Errorf("trace: %w: report %v needs an output directory", ErrConfig, r)
			}
		}
	}
	return nil
}

const defaultTopPages = 20

// WriteMarkdown renders the attribution summary: run identity, traffic
// totals, the pattern census, the hottest pages, the most contended locks,
// barrier imbalance and the message-class timeline.
func WriteMarkdown(w io.Writer, a *Analysis) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Trace attribution — %s on %s, %d procs (%s scale)\n\n",
		a.Meta.App, a.Meta.Impl, a.Meta.NProcs, a.Meta.Scale)
	fmt.Fprintf(bw, "- span: %v\n- messages: %d\n- data: %.2f MB\n",
		a.Span, a.TotalMsgs, float64(a.TotalBytes)/1e6)
	if a.LinkWait > 0 {
		fmt.Fprintf(bw, "- link wait (contention): %v\n", a.LinkWait)
	}
	counts := a.PatternCounts()
	fmt.Fprintf(bw, "- pages: %d (", len(a.Pages))
	first := true
	for _, p := range []Pattern{PatternPrivate, PatternReadMostly, PatternMigratory, PatternProducerConsumer, PatternFalseSharing} {
		if counts[p] == 0 {
			continue
		}
		if !first {
			fmt.Fprintf(bw, ", ")
		}
		first = false
		fmt.Fprintf(bw, "%d %s", counts[p], p)
	}
	fmt.Fprintf(bw, ")\n\n")

	fmt.Fprintf(bw, "## Hottest pages\n\n")
	fmt.Fprintf(bw, "| page | region | pattern | faults | misses | twins | collects | applies | bytes | writers | readers | moves |\n")
	fmt.Fprintf(bw, "|-----:|--------|---------|-------:|-------:|------:|---------:|--------:|------:|--------:|--------:|------:|\n")
	hot := hottestPages(a, defaultTopPages)
	for _, p := range hot {
		fmt.Fprintf(bw, "| %d | %s | %s | %d | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			p.Page, p.Region, p.Pattern, p.Faults, p.Misses, p.Twins, p.Collects,
			p.Applies, p.BytesMoved, p.Writers, p.Readers, p.OwnerMoves)
	}
	if len(a.Pages) > len(hot) {
		fmt.Fprintf(bw, "\n(%d further pages in pages.csv)\n", len(a.Pages)-len(hot))
	}

	fmt.Fprintf(bw, "\n## Locks\n\n")
	fmt.Fprintf(bw, "| lock | acquires | ro | local | remote | grants | bytes | wait avg | wait max | handoff avg | max queue | holders |\n")
	fmt.Fprintf(bw, "|-----:|---------:|---:|------:|-------:|-------:|------:|---------:|---------:|------------:|----------:|--------:|\n")
	for _, l := range contendedLocks(a) {
		fmt.Fprintf(bw, "| %d | %d | %d | %d | %d | %d | %d | %v | %v | %v | %d | %d |\n",
			l.Lock, l.Acquires, l.ReadOnly, l.Local, l.Remote, l.Grants, l.BytesMoved,
			avgTime(l.WaitTotal, l.Remote), l.WaitMax, avgTime(l.HandoffTotal, l.Remote),
			l.MaxQueue, l.Holders)
	}

	fmt.Fprintf(bw, "\n## Barriers\n\n")
	fmt.Fprintf(bw, "| barrier | episodes | imbalance avg | imbalance max | usual last |\n")
	fmt.Fprintf(bw, "|--------:|---------:|--------------:|--------------:|-----------:|\n")
	for _, b := range a.Barriers {
		last := "-"
		if b.LastProc >= 0 {
			last = fmt.Sprintf("p%d", b.LastProc)
		}
		fmt.Fprintf(bw, "| %d | %d | %v | %v | %s |\n",
			b.Barrier, b.Episodes, avgTime(b.ImbalanceTotal, b.Episodes), b.ImbalanceMax, last)
	}

	if len(a.Links) > 0 {
		fmt.Fprintf(bw, "\n## Fault injection per link\n\n")
		fmt.Fprintf(bw, "| link | drops | retransmits | acks | dup drops |\n")
		fmt.Fprintf(bw, "|------|------:|------------:|-----:|----------:|\n")
		for _, l := range a.Links {
			fmt.Fprintf(bw, "| p%d→p%d | %d | %d | %d | %d |\n",
				l.From, l.To, l.Drops, l.Retransmits, l.Acks, l.DupDrops)
		}
	}

	fmt.Fprintf(bw, "\n## Message classes over time\n\n")
	fmt.Fprintf(bw, "| interval |")
	for _, c := range a.Classes {
		fmt.Fprintf(bw, " %s |", c)
	}
	fmt.Fprintf(bw, "\n|----------|")
	for range a.Classes {
		fmt.Fprintf(bw, "------:|")
	}
	fmt.Fprintf(bw, "\n")
	for _, row := range a.Intervals {
		total := int64(0)
		for _, m := range row.Msgs {
			total += m
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(bw, "| %v–%v |", row.Start, row.End)
		for i := range a.Classes {
			fmt.Fprintf(bw, " %d |", row.Msgs[i])
		}
		fmt.Fprintf(bw, "\n")
	}
	return bw.Flush()
}

// hottestPages returns the top pages by bytes moved (ties by page number),
// skipping fully idle pages.
func hottestPages(a *Analysis, n int) []PageReport {
	hot := make([]PageReport, 0, len(a.Pages))
	for _, p := range a.Pages {
		if p.Faults+p.Misses+p.BytesMoved+p.Collects > 0 {
			hot = append(hot, p)
		}
	}
	sort.SliceStable(hot, func(i, j int) bool {
		if hot[i].BytesMoved != hot[j].BytesMoved {
			return hot[i].BytesMoved > hot[j].BytesMoved
		}
		return hot[i].Page < hot[j].Page
	})
	if len(hot) > n {
		hot = hot[:n]
	}
	return hot
}

// contendedLocks returns the locks by descending total wait (ties by id).
func contendedLocks(a *Analysis) []LockReport {
	out := make([]LockReport, len(a.Locks))
	copy(out, a.Locks)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].WaitTotal != out[j].WaitTotal {
			return out[i].WaitTotal > out[j].WaitTotal
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

func avgTime(total sim.Time, n int64) sim.Time {
	if n == 0 {
		return 0
	}
	return total / sim.Time(n)
}

// WritePagesCSV emits the full per-page heat table.
func WritePagesCSV(w io.Writer, a *Analysis) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"page", "region", "pattern", "faults", "misses", "write_misses",
		"multi_writer_misses", "twins", "collects", "applies",
		"words_collected", "words_applied", "bytes_moved",
		"writers", "readers", "owner_moves",
	}); err != nil {
		return err
	}
	for _, p := range a.Pages {
		rec := []string{
			strconv.Itoa(p.Page), p.Region, p.Pattern.String(),
			i64(p.Faults), i64(p.Misses), i64(p.WriteMisses),
			i64(p.MultiWriterMisses), i64(p.Twins), i64(p.Collects), i64(p.Applies),
			i64(p.WordsCollected), i64(p.WordsApplied), i64(p.BytesMoved),
			strconv.Itoa(p.Writers), strconv.Itoa(p.Readers), i64(p.OwnerMoves),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLocksCSV emits the full per-lock contention table.
func WriteLocksCSV(w io.Writer, a *Analysis) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"lock", "acquires", "read_only", "local", "remote", "grants",
		"bytes_moved", "wait_total_ns", "wait_max_ns",
		"handoff_total_ns", "handoff_max_ns", "max_queue", "holders", "pages",
	}); err != nil {
		return err
	}
	for _, l := range a.Locks {
		pgs := make([]string, len(l.Pages))
		for i, pg := range l.Pages {
			pgs[i] = strconv.Itoa(pg)
		}
		rec := []string{
			strconv.Itoa(l.Lock), i64(l.Acquires), i64(l.ReadOnly), i64(l.Local),
			i64(l.Remote), i64(l.Grants), i64(l.BytesMoved),
			i64(int64(l.WaitTotal)), i64(int64(l.WaitMax)),
			i64(int64(l.HandoffTotal)), i64(int64(l.HandoffMax)),
			strconv.Itoa(l.MaxQueue), strconv.Itoa(l.Holders), strings.Join(pgs, " "),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func i64(v int64) string { return strconv.FormatInt(v, 10) }

// chromeEvent is one Chrome trace-event JSON record (the subset the timeline
// uses: complete spans "X" and instants "i").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the run as a Chrome trace-event timeline
// (chrome://tracing, Perfetto): one track per processor with lock-held and
// barrier-wait spans plus instants for faults, misses, twins and diffs.
func WriteChromeTrace(w io.Writer, t *Tracer, meta Meta) error {
	recs := t.Merged()
	var evs []chromeEvent
	us := func(at sim.Time) float64 { return at.Micros() }
	type openKey struct{ proc, id int }
	lockOpen := make(map[openKey]sim.Time)
	barOpen := make(map[openKey]sim.Time)
	for _, r := range recs {
		proc := int(r.Proc)
		switch r.Kind {
		case EvLockAcq:
			lockOpen[openKey{proc, int(r.A)}] = r.At
		case EvLockRel:
			k := openKey{proc, int(r.A)}
			if at, ok := lockOpen[k]; ok {
				delete(lockOpen, k)
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("lock %d", r.A), Ph: "X",
					Ts: us(at), Dur: us(r.At) - us(at), Pid: 0, Tid: proc,
				})
			}
		case EvBarArrive:
			barOpen[openKey{proc, int(r.A)}] = r.At
		case EvBarDepart:
			k := openKey{proc, int(r.A)}
			if at, ok := barOpen[k]; ok {
				delete(barOpen, k)
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("barrier %d", r.A), Ph: "X",
					Ts: us(at), Dur: us(r.At) - us(at), Pid: 0, Tid: proc,
				})
			}
		case EvMiss:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("miss pg%d", r.A), Ph: "i", Ts: us(r.At),
				Pid: 0, Tid: proc, S: "t",
				Args: map[string]any{"writers": r.B, "write": r.Write()},
			})
		case EvFault:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("fault pg%d", r.A), Ph: "i", Ts: us(r.At),
				Pid: 0, Tid: proc, S: "t",
			})
		case EvTwin:
			evs = append(evs, chromeEvent{
				Name: twinName(r), Ph: "i", Ts: us(r.At), Pid: 0, Tid: proc, S: "t",
			})
		case EvCollect:
			evs = append(evs, chromeEvent{
				Name: collectName(r), Ph: "i", Ts: us(r.At), Pid: 0, Tid: proc, S: "t",
				Args: map[string]any{"words": r.C},
			})
		case EvDrop:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("drop →p%d", r.A), Ph: "i", Ts: us(r.At),
				Pid: 0, Tid: proc, S: "t",
				Args: map[string]any{"kind": MsgClassName(int(r.B)), "attempt": r.Aux},
			})
		case EvRetransmit:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("retransmit →p%d", r.A), Ph: "i", Ts: us(r.At),
				Pid: 0, Tid: proc, S: "t",
				Args: map[string]any{"kind": MsgClassName(int(r.B)), "attempt": r.Aux},
			})
		case EvDupDrop:
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("dup-drop ←p%d", r.A), Ph: "i", Ts: us(r.At),
				Pid: 0, Tid: proc, S: "t",
				Args: map[string]any{"kind": MsgClassName(int(r.B))},
			})
		}
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"app": meta.App, "impl": meta.Impl, "nprocs": meta.NProcs, "scale": meta.Scale,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func twinName(r Rec) string {
	if r.Domain() == DomainLock {
		return fmt.Sprintf("objtwin lock%d", r.A)
	}
	return fmt.Sprintf("twin pg%d", r.A)
}

func collectName(r Rec) string {
	if r.Domain() == DomainLock {
		return fmt.Sprintf("harvest lock%d", r.A)
	}
	return fmt.Sprintf("harvest pg%d", r.A)
}

// Artifacts bundles the analysis products report emission draws from. Only
// Analysis is required: the profile and critical path are computed on demand
// when a profile report is selected and the caller did not precompute them.
// The CLIs precompute the full bundle (Analyzed) under a perf "analyze" phase
// so analysis wall time is attributed separately from file emission.
type Artifacts struct {
	Analysis *Analysis
	Profile  *Profile
	CritPath *CritPath
}

// Analyzed computes the full artifact bundle for a traced run: the event
// analysis plus the virtual-time profile and its critical path. Every product
// is a pure function of the trace and meta.
func Analyzed(t *Tracer, meta Meta) Artifacts {
	prof := BuildProfile(t, meta)
	return Artifacts{
		Analysis: Analyze(t, meta),
		Profile:  prof,
		CritPath: ExtractCriticalPath(t, prof),
	}
}

// EmitReports writes the selected artifacts into dir: summary.md, pages.csv,
// locks.csv, timeline.json, trace.bin, profile.md + profile.folded,
// critpath.csv + critpath.json and whatif.md (the barrier table lives inside
// the summary). The profile and critical path are computed once — from the
// bundle when precomputed, otherwise on demand — and shared across the
// reports that need them. It returns the files written, in emission order.
func EmitReports(dir string, reports []Report, art Artifacts, t *Tracer) ([]string, error) {
	a := art.Analysis
	if len(reports) == 0 {
		reports, _ = ParseReports("")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	want := make(map[Report]bool)
	for _, r := range reports {
		want[r] = true
	}
	var written []string
	emit := func(name string, write func(f *os.File) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		written = append(written, path)
		return nil
	}
	// Barrier tables render inside the summary, so selecting them emits it.
	if want[ReportSummary] || want[ReportBarriers] {
		if err := emit("summary.md", func(f *os.File) error { return WriteMarkdown(f, a) }); err != nil {
			return written, err
		}
	}
	if want[ReportPages] {
		if err := emit("pages.csv", func(f *os.File) error { return WritePagesCSV(f, a) }); err != nil {
			return written, err
		}
	}
	if want[ReportLocks] {
		if err := emit("locks.csv", func(f *os.File) error { return WriteLocksCSV(f, a) }); err != nil {
			return written, err
		}
	}
	if want[ReportTimeline] {
		if err := emit("timeline.json", func(f *os.File) error { return WriteChromeTrace(f, t, a.Meta) }); err != nil {
			return written, err
		}
	}
	if want[ReportBinary] {
		if err := emit("trace.bin", func(f *os.File) error { return t.WriteBinary(f) }); err != nil {
			return written, err
		}
	}
	if want[ReportProfile] || want[ReportCritPath] || want[ReportWhatIf] {
		prof, cp := art.Profile, art.CritPath
		if prof == nil {
			prof = BuildProfile(t, a.Meta)
		}
		if cp == nil {
			cp = ExtractCriticalPath(t, prof)
		}
		if want[ReportProfile] {
			if err := emit("profile.md", func(f *os.File) error { return WriteProfileMarkdown(f, prof, cp) }); err != nil {
				return written, err
			}
			if err := emit("profile.folded", func(f *os.File) error { return WriteFoldedStacks(f, prof) }); err != nil {
				return written, err
			}
		}
		if want[ReportCritPath] {
			if err := emit("critpath.csv", func(f *os.File) error { return WriteCritPathCSV(f, cp) }); err != nil {
				return written, err
			}
			if err := emit("critpath.json", func(f *os.File) error { return WriteCritPathChrome(f, cp) }); err != nil {
				return written, err
			}
		}
		if want[ReportWhatIf] {
			if err := emit("whatif.md", func(f *os.File) error { return WriteWhatIfMarkdown(f, cp) }); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}
