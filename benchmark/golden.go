package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ecvslrc/internal/core"
)

// The committed digests: per workload, the SHA-256 of the canonical per-cell
// core.Stats list at seed 1, followed by the list itself so a mismatch can
// name the first differing cell and field instead of two opaque hashes.
//
//go:embed golden/*.digest
var goldenFS embed.FS

const goldenDir = "benchmark/golden"

// statLine renders a cell's identity and every simulated statistic, in a
// fixed order. A change meant only to speed the simulator up must leave each
// identical.
func statLine(key string, s core.Stats) string {
	return fmt.Sprintf("%s time=%d msgs=%d bytes=%d faults=%d misses=%d locks=%d rolocks=%d remote=%d barriers=%d diffs=%d twins=%d stampruns=%d",
		key, int64(s.Time), s.Msgs, s.Bytes, s.Faults, s.AccessMisses, s.LockAcquires, s.ReadLockAcquires,
		s.RemoteAcquires, s.Barriers, s.DiffsCreated, s.TwinsMade, s.StampRunsSent)
}

// golden is one workload's parsed digest file.
type golden struct {
	Sum   string            // hex SHA-256 of the joined cell lines
	Lines map[string]string // cell key -> canonical stat line
}

func digestOf(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n") + "\n"))
	return hex.EncodeToString(sum[:])
}

func parseGolden(data []byte) (golden, error) {
	g := golden{Lines: map[string]string{}}
	var lines []string
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i == 0 {
			sum, ok := strings.CutPrefix(line, "sha256 ")
			if !ok {
				return g, fmt.Errorf("digest header %q is not \"sha256 <hex>\"", line)
			}
			g.Sum = strings.TrimSpace(sum)
			continue
		}
		key, _, ok := strings.Cut(line, " ")
		if !ok {
			return g, fmt.Errorf("digest line %d has no statistics", i+1)
		}
		g.Lines[key] = line
		lines = append(lines, line)
	}
	if got := digestOf(lines); got != g.Sum {
		return g, fmt.Errorf("digest file is inconsistent: header %s, cell lines hash to %s", g.Sum, got)
	}
	return g, nil
}

func loadGolden(workload string) (golden, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".digest")
	if err != nil {
		return golden{}, fmt.Errorf("no committed digest for %s (run with -update-golden): %w", workload, err)
	}
	g, err := parseGolden(data)
	if err != nil {
		return g, fmt.Errorf("%s.digest: %w", workload, err)
	}
	return g, nil
}

// passLines renders a pass in canonical order; failed cells render their
// error, which never matches a committed line.
func passLines(p passResult) []string {
	out := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		if c.Err != nil {
			out[i] = c.Cell.key() + " error"
			continue
		}
		out[i] = statLine(c.Cell.key(), c.Stats)
	}
	return out
}

// writeGolden commits a seed-1 pass as the workload's digest. It must run
// from the repository root, which is where `go run ./benchmark` runs.
func writeGolden(workload string, p passResult) (string, error) {
	for _, c := range p.Cells {
		if c.Err != nil {
			return "", fmt.Errorf("refusing to commit a digest with a failed cell: %s: %v", c.Cell.key(), c.Err)
		}
	}
	lines := passLines(p)
	body := "sha256 " + digestOf(lines) + "\n" + strings.Join(lines, "\n") + "\n"
	path := filepath.Join(goldenDir, workload+".digest")
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return "", err
	}
	return path, os.WriteFile(path, []byte(body), 0o644)
}

// mismatch describes the first way a cell's statistics differ from the
// committed line: the field name with both values.
func mismatch(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	for i := 1; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			name, _, _ := strings.Cut(w[i], "=")
			return fmt.Sprintf("field %s: committed %s, measured %s", name, w[i], g[i])
		}
	}
	return fmt.Sprintf("committed %q, measured %q", want, got)
}

// verifyPass checks a pass against the committed digest and returns one
// message per failed cell. A cell fails on its own error (verification
// against the sequential reference, panic, stall) or when its statistics
// disagree with the digest. Seed-dependent cells are only held to the digest
// at seed 1; self-verification covers them at every seed.
func verifyPass(g golden, p passResult, seed uint64) []string {
	var failures []string
	lines := passLines(p)
	for i, c := range p.Cells {
		key := c.Cell.key()
		switch want, ok := g.Lines[key]; {
		case c.Err != nil:
			failures = append(failures, fmt.Sprintf("%s: %v", key, firstLine(c.Err.Error())))
		case seed != 1 && c.Cell.seedDependent():
		case !ok:
			failures = append(failures, fmt.Sprintf("%s: not in the committed digest", key))
		case want != lines[i]:
			failures = append(failures, fmt.Sprintf("%s: %s", key, mismatch(want, lines[i])))
		}
	}
	return failures
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
