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
	"slices"
	"sort"
	"strconv"
	"strings"

	"ecvslrc/internal/sim"
)

// ErrConfig is wrapped by every report-selection failure, mirroring the
// harness.Config.Validate convention so callers classify with errors.Is.
var ErrConfig = errors.New("invalid trace options")

// Report names one emittable attribution artifact: an index into reports.
type Report int

const (
	ReportSummary Report = iota
	ReportPages
	ReportLocks
	ReportBarriers
	ReportTimeline
	ReportBinary
	ReportProfile
	ReportCritPath
	ReportWhatIf
)

// product is the analysis a report renders from.
type product int

const (
	fromTracer   product = iota // the records alone
	fromAnalysis                // Analyze's page, lock and barrier tables
	fromCritPath                // BuildProfile and its ExtractCriticalPath
)

// products holds what a selection renders from; render fills only the
// analyses some selected report needs.
type products struct {
	t    *Tracer
	meta Meta
	an   *Analysis
	prof *Profile
	cp   *CritPath
}

// reportFile is one artifact file and its renderer.
type reportFile struct {
	name  string
	write func(io.Writer, *products) error
}

var summaryFile = reportFile{"summary.md", func(w io.Writer, p *products) error { return WriteMarkdown(w, p.an) }}

// reports declares every report once, in emission order: its -report name,
// the product it needs, whether its first (markdown) file can go to stdout,
// and the files it writes under an output directory.
var reports = [...]struct {
	name   string
	needs  product
	stdout bool
	files  []reportFile
}{
	ReportSummary: {"summary", fromAnalysis, true, []reportFile{summaryFile}},
	ReportPages: {"pages", fromAnalysis, false, []reportFile{
		{"pages.csv", func(w io.Writer, p *products) error { return WritePagesCSV(w, p.an) }}}},
	ReportLocks: {"locks", fromAnalysis, false, []reportFile{
		{"locks.csv", func(w io.Writer, p *products) error { return WriteLocksCSV(w, p.an) }}}},
	// The barrier tables render inside the summary, so selecting them emits it.
	ReportBarriers: {"barriers", fromAnalysis, true, []reportFile{summaryFile}},
	// Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
	ReportTimeline: {"timeline", fromTracer, false, []reportFile{
		{"timeline.json", func(w io.Writer, p *products) error { return WriteChromeTrace(w, p.t, p.meta) }}}},
	ReportBinary: {"bin", fromTracer, false, []reportFile{
		{"trace.bin", func(w io.Writer, p *products) error { return p.t.WriteBinary(w) }}}},
	// The stall-class breakdown plus folded stacks for flamegraph tools.
	ReportProfile: {"profile", fromCritPath, true, []reportFile{
		{"profile.md", func(w io.Writer, p *products) error { return WriteProfileMarkdown(w, p.prof, p.cp) }},
		{"profile.folded", func(w io.Writer, p *products) error { return WriteFoldedStacks(w, p.prof) }}}},
	// The span table plus a Chrome-trace overlay of the path.
	ReportCritPath: {"critpath", fromCritPath, false, []reportFile{
		{"critpath.csv", func(w io.Writer, p *products) error { return WriteCritPathCSV(w, p.cp) }},
		{"critpath.json", func(w io.Writer, p *products) error { return WriteCritPathChrome(w, p.cp) }}}},
	// The path re-costed with each stall class zeroed.
	ReportWhatIf: {"whatif", fromCritPath, true, []reportFile{
		{"whatif.md", func(w io.Writer, p *products) error { return WriteWhatIfMarkdown(w, p.cp) }}}},
}

// String names the report as the -report flag spells it.
func (r Report) String() string {
	if r < 0 || int(r) >= len(reports) {
		return "?"
	}
	return reports[r].name
}

// ReportNames lists the valid -report selector names.
func ReportNames() []string {
	names := make([]string, len(reports))
	for i := range reports {
		names[i] = reports[i].name
	}
	return names
}

// ParseReports parses a comma-separated report selection ("pages,locks,
// timeline") for an output directory, or for stdout when stdout is set. An
// empty spec selects every report, or for stdout the summary alone. Unknown
// names, and for stdout a report that only writes files, fail with an error
// wrapping ErrConfig.
func ParseReports(spec string, stdout bool) ([]Report, error) {
	if strings.TrimSpace(spec) == "" {
		if stdout {
			return []Report{ReportSummary}, nil
		}
		return ParseReports(strings.Join(ReportNames(), ","), false)
	}
	var out []Report
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r := Report(slices.Index(ReportNames(), part))
		if r < 0 {
			return nil, fmt.Errorf("trace: %w: unknown report %q (known: %s)",
				ErrConfig, part, strings.Join(ReportNames(), ", "))
		}
		if stdout {
			if err := checkStdout(r); err != nil {
				return nil, err
			}
		}
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: %w: report list selects nothing", ErrConfig)
	}
	return out, nil
}

// checkStdout rejects a report that has nothing to print without a directory.
func checkStdout(r Report) error {
	if !reports[r].stdout {
		return fmt.Errorf("trace: %w: report %v needs an output directory", ErrConfig, r)
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
	if err := cw.Write(strings.Split("page,region,pattern,faults,misses,write_misses,"+
		"multi_writer_misses,twins,collects,applies,words_collected,words_applied,"+
		"bytes_moved,writers,readers,owner_moves", ",")); err != nil {
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
	if err := cw.Write(strings.Split("lock,acquires,read_only,local,remote,grants,"+
		"bytes_moved,wait_total_ns,wait_max_ns,handoff_total_ns,handoff_max_ns,"+
		"max_queue,holders,pages", ",")); err != nil {
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
	var evs []chromeEvent
	us := func(at sim.Time) float64 { return at.Micros() }
	type openKey struct{ proc, id int }
	lockOpen := make(map[openKey]sim.Time)
	barOpen := make(map[openKey]sim.Time)
	var r Rec
	instant := func(name string, args map[string]any) {
		evs = append(evs, chromeEvent{Name: name, Ph: "i", Ts: us(r.At), Tid: int(r.Proc), S: "t", Args: args})
	}
	span := func(open map[openKey]sim.Time, what string) {
		k := openKey{int(r.Proc), int(r.A)}
		if at, ok := open[k]; ok {
			delete(open, k)
			evs = append(evs, chromeEvent{Name: fmt.Sprintf("%s %d", what, r.A), Ph: "X",
				Ts: us(at), Dur: us(r.At) - us(at), Tid: int(r.Proc)})
		}
	}
	// object names a twin or collect by its lock or page.
	object := func(lockKind, pageKind string) string {
		if r.Domain() == DomainLock {
			return fmt.Sprintf("%s lock%d", lockKind, r.A)
		}
		return fmt.Sprintf("%s pg%d", pageKind, r.A)
	}
	for _, r = range t.Merged() {
		switch r.Kind {
		case EvLockAcq:
			lockOpen[openKey{int(r.Proc), int(r.A)}] = r.At
		case EvLockRel:
			span(lockOpen, "lock")
		case EvBarArrive:
			barOpen[openKey{int(r.Proc), int(r.A)}] = r.At
		case EvBarDepart:
			span(barOpen, "barrier")
		case EvMiss:
			instant(fmt.Sprintf("miss pg%d", r.A), map[string]any{"writers": r.B, "write": r.Write()})
		case EvFault:
			instant(fmt.Sprintf("fault pg%d", r.A), nil)
		case EvTwin:
			instant(object("objtwin", "twin"), nil)
		case EvCollect:
			instant(object("harvest", "harvest"), map[string]any{"words": r.C})
		case EvDrop:
			instant(fmt.Sprintf("drop →p%d", r.A), map[string]any{"kind": MsgClassName(int(r.B)), "attempt": r.Aux})
		case EvRetransmit:
			instant(fmt.Sprintf("retransmit →p%d", r.A), map[string]any{"kind": MsgClassName(int(r.B)), "attempt": r.Aux})
		case EvDupDrop:
			instant(fmt.Sprintf("dup-drop ←p%d", r.A), map[string]any{"kind": MsgClassName(int(r.B))})
		}
	}
	return writeChromeDoc(w, evs, map[string]any{
		"app": meta.App, "impl": meta.Impl, "nprocs": meta.NProcs, "scale": meta.Scale,
	})
}

// writeChromeDoc encodes a Chrome trace-event document: the events, the
// display unit and the run identity in otherData.
func writeChromeDoc(w io.Writer, evs []chromeEvent, other map[string]any) error {
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": evs, "displayTimeUnit": "ms", "otherData": other,
	})
}

// render computes the products the selection needs, once, and hands each
// selected file to out in table order, a file two reports share once. With
// stdout only each report's markdown file is selected, and a file-only
// report fails with an error wrapping ErrConfig before anything is computed.
func render(sel []Report, t *Tracer, meta Meta, stdout bool, out func(name string, write func(io.Writer) error) error) error {
	p := &products{t: t, meta: meta}
	var needs [fromCritPath + 1]bool
	want := make(map[string]bool)
	for _, r := range sel {
		if stdout {
			if err := checkStdout(r); err != nil {
				return err
			}
		}
		needs[reports[r].needs] = true
		for _, f := range selectedFiles(r, stdout) {
			want[f.name] = true
		}
	}
	if needs[fromAnalysis] {
		p.an = Analyze(t, meta)
	}
	if needs[fromCritPath] {
		p.prof = BuildProfile(t, meta)
		p.cp = ExtractCriticalPath(t, p.prof)
	}
	for r := range reports {
		for _, f := range selectedFiles(Report(r), stdout) {
			if !want[f.name] {
				continue
			}
			delete(want, f.name)
			if err := out(f.name, func(w io.Writer) error { return f.write(w, p) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// selectedFiles is what r writes: its files, or for stdout its markdown.
func selectedFiles(r Report, stdout bool) []reportFile {
	if stdout {
		return reports[r].files[:1]
	}
	return reports[r].files
}

// EmitReports writes the selected reports' files into dir, computing from t
// exactly the analyses they need. It returns the files written, in emission
// order.
func EmitReports(dir string, sel []Report, t *Tracer, meta Meta) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	err := render(sel, t, meta, false, func(name string, write func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err == nil {
			err = errors.Join(write(f), f.Close())
		}
		if err == nil {
			written = append(written, path)
		}
		return err
	})
	return written, err
}

// WriteReports prints the selected reports' markdown to w, one blank line
// between reports: the summary (with its barrier tables), profile.md and
// whatif.md, in that order. A report that only writes files fails with an
// error wrapping ErrConfig.
func WriteReports(w io.Writer, sel []Report, t *Tracer, meta Meta) error {
	sep := ""
	return render(sel, t, meta, true, func(_ string, write func(io.Writer) error) error {
		if _, err := io.WriteString(w, sep); err != nil {
			return err
		}
		sep = "\n"
		return write(w)
	})
}
