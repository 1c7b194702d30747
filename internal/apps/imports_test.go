package apps

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAppsDependOnDSMOnly pins the layering: an application is written once
// against core.DSM for both models (Section 3.3), so no non-test file of this
// package may import a protocol package.
func TestAppsDependOnDSMOnly(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"ecvslrc/internal/ec": true, "ecvslrc/internal/lrc": true}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if forbidden[path] {
				t.Errorf("%s imports %s: applications take core.DSM, not a protocol node", name, path)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go files found")
	}
}
