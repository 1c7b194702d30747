package ecvslrc

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ecvslrc/internal/apps"
	"ecvslrc/internal/core"
	"ecvslrc/internal/fabric"
	"ecvslrc/internal/run"
)

var update = flag.Bool("update", false, "rewrite "+cellsGolden)

const cellsGolden = "testdata/cells_p4.golden"

// TestCellsMatchGolden runs every suite and micro application under all six
// implementations at 4 processors, test scale, and then sequentially, and
// compares all of core.Stats (the sequential time for the reference) with
// the line recorded for that cell. The file was written by the
// statically-dispatched kernels that preceded the one core.DSM path, so a
// cell that drifts is a change to the simulation, not to how a kernel is
// entered. Regenerate with -update only when the simulated statistics are
// meant to change.
func TestCellsMatchGolden(t *testing.T) {
	want := readCellsGolden(t)
	var got []string
	check := func(t *testing.T, key, val string) {
		got = append(got, key+" "+val)
		if *update {
			return
		}
		if w, ok := want[key]; !ok {
			t.Errorf("%s has no line for %s", cellsGolden, key)
		} else if val != w {
			t.Errorf("%s drifted from %s:\n  got:  %s\n  want: %s", key, cellsGolden, val, w)
		}
	}
	names := append(append([]string{}, apps.Names()...), apps.MicroNames()...)
	const nprocs = 4
	cm := fabric.DefaultCostModel()
	for _, name := range names {
		for _, impl := range core.Implementations() {
			key := name + "/" + impl.String()
			t.Run(key, func(t *testing.T) {
				a, err := apps.New(name, apps.Test)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run.RunWith(a, impl, nprocs, cm, run.Options{Timeout: apps.TestHorizon})
				if err != nil {
					t.Fatal(err)
				}
				s := res.Stats
				check(t, key, fmt.Sprintf("time=%d msgs=%d bytes=%d faults=%d misses=%d locks=%d ro=%d remote=%d barriers=%d diffs=%d twins=%d stampruns=%d",
					int64(s.Time), s.Msgs, s.Bytes, s.Faults, s.AccessMisses, s.LockAcquires, s.ReadLockAcquires,
					s.RemoteAcquires, s.Barriers, s.DiffsCreated, s.TwinsMade, s.StampRunsSent))
			})
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a, err := apps.New(name, apps.Test)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := run.RunSeqWith(a, run.Options{Timeout: apps.TestHorizon})
			if err != nil {
				t.Fatal(err)
			}
			check(t, name+"/seq", fmt.Sprintf("time=%d", int64(tm)))
		})
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cellsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readCellsGolden maps each cell key ("IS/LRC-diff", "IS/seq") to the rest
// of its line.
func readCellsGolden(t *testing.T) map[string]string {
	t.Helper()
	if *update {
		return nil
	}
	f, err := os.Open(cellsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", cellsGolden, sc.Text())
		}
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
