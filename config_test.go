package ecvslrc

import (
	"errors"
	"strings"
	"testing"

	"ecvslrc/internal/harness"
)

// TestInvalidCellsRejected pins the root entry points' argument checks: an
// out-of-range processor count, an unknown scale, model or application, or a
// traced run past the buffered tracer's limit is refused before anything is
// simulated, once, with an error that wraps harness.ErrConfig and names the
// valid values.
func TestInvalidCellsRejected(t *testing.T) {
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"Run 0 procs", func() error { _, err := Run("SOR", "EC-diff", 0, Test); return err }, "nprocs 0 outside 1..32767"},
		{"Run -3 procs", func() error { _, err := Run("SOR", "EC-diff", -3, Test); return err }, "nprocs -3 outside 1..32767"},
		{"Run bad scale", func() error { _, err := Run("SOR", "EC-diff", 4, Scale(42)); return err }, "unknown scale 42 (valid: test, bench, paper, large)"},
		{"Trace 0 procs", func() error { _, err := Trace("SOR", "EC-diff", 0, Test); return err }, "nprocs 0 outside 1..32767"},
		{"RunSeq bad scale", func() error { _, err := RunSeq("SOR", Scale(42)); return err }, "unknown scale 42 (valid: test, bench, paper, large)"},
		{"Table3 0 procs", func() error { _, err := Table3(Test, 0, "SOR"); return err }, "nprocs 0 outside 1..32767"},
		{"Table45 0 procs", func() error { _, err := Table45("EC", Test, 0, "SOR"); return err }, "nprocs 0 outside 1..32767"},
		{"Table45 bogus model", func() error { _, err := Table45("bogus", Test, 4, "SOR"); return err }, `unknown model "bogus" (valid: EC, LRC)`},
		{"Table45 lower-case model", func() error { _, err := Table45("ec", Test, 4, "SOR"); return err }, `unknown model "ec" (valid: EC, LRC)`},
		{"Run unknown app", func() error { _, err := Run("nope", "EC-diff", 4, Test); return err }, `unknown application "nope" (valid: SOR, SOR+, QS, Water, Barnes-Hut, IS, 3D-FFT, micro-migratory,`},
		{"Table3 unknown app", func() error { _, err := Table3(Test, 4, "nope"); return err }, `unknown application "nope" (valid: `},
		{"Trace 256 procs", func() error { _, err := Trace("SOR", "LRC-diff", 256, Test); return err }, "traced runs support 1..255 processors, got 256"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if !errors.Is(err, harness.ErrConfig) {
				t.Fatalf("err = %v, want one wrapping harness.ErrConfig", err)
			}
			if msg := err.Error(); !strings.Contains(msg, c.want) || strings.Count(msg, "\n") > 0 {
				t.Errorf("err = %q, want one line containing %q", msg, c.want)
			}
		})
	}
}
