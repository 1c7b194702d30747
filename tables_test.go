package ecvslrc

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTablesMatchGolden renders Table 3 and Tables 4 and 5 through the root
// API for two applications and requires each to be the bench report golden's
// block with only those applications' rows: the root tables and dsmbench
// render the same cells the same way.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale cells")
	}
	golden, err := os.ReadFile("internal/sweep/testdata/bench_all_micro.golden")
	if err != nil {
		t.Fatal(err)
	}
	// Table 2, Table 3, Table 4, Table 5, the counters, the factor kernels.
	blocks := strings.Split(string(golden), "\n\n")
	names := []string{"QS", "IS"}
	rows := func(block string) string {
		var out []string
		for i, line := range strings.Split(block, "\n") {
			if i < 2 || slices.Contains(names, strings.Fields(line)[0]) {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n") + "\n"
	}
	check := func(name, got string, err error, block string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if want := rows(block); got != want {
			t.Errorf("%s differs from the golden's rows:\n%s\nwant:\n%s", name, got, want)
		}
	}
	got, err := Table3(Bench, 8, names...)
	check("Table3", got, err, blocks[1])
	got, err = Table45("EC", Bench, 8, names...)
	check("Table45 EC", got, err, blocks[2])
	got, err = Table45("LRC", Bench, 8, names...)
	check("Table45 LRC", got, err, blocks[3])
}
