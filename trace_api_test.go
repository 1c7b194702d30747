package ecvslrc

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceAPI exercises the root tracing surface: a traced run reports the
// same statistics as an untraced one, the analysis classifies every page,
// and the summary/timeline emitters produce output.
func TestTraceAPI(t *testing.T) {
	plain, err := Run("SOR", "LRC-diff", 4, Test)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Trace("SOR", "LRC-diff", 4, Test)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats != plain {
		t.Errorf("traced stats %+v differ from untraced %+v", tr.Stats, plain)
	}
	if tr.Tracer.Len() == 0 {
		t.Error("trace recorded no events")
	}
	if len(tr.Analysis.Pages) == 0 {
		t.Error("analysis reported no pages")
	}
	var md, tl bytes.Buffer
	if err := tr.WriteSummary(&md); err != nil || md.Len() == 0 {
		t.Errorf("summary: %v (%d bytes)", err, md.Len())
	}
	if err := tr.WriteTimeline(&tl); err != nil || tl.Len() == 0 {
		t.Errorf("timeline: %v (%d bytes)", err, tl.Len())
	}
}

// TestTraceAPIErrors covers the argument validation paths.
func TestTraceAPIErrors(t *testing.T) {
	if _, err := Trace("SOR", "no-such-impl", 4, Test); err == nil {
		t.Error("bad implementation accepted")
	}
	if _, err := Trace("no-such-app", "LRC-diff", 4, Test); err == nil {
		t.Error("bad application accepted")
	}
	// Trace keeps the records its reports need, so the buffered tracer's
	// one-byte processor id still bounds it (dsmsweep -breakdown does not).
	_, err := Trace("SOR", "LRC-diff", 256, Test)
	if err == nil || !strings.Contains(err.Error(), "traced runs support 1..255 processors, got 256") {
		t.Errorf("Trace at 256 procs: err = %v, want the 1..255 rejection", err)
	}
}
