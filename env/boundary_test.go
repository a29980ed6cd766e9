package env_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoInternalImportsOutsideShims enforces the public-surface
// contract this package exists for: outside gsfl/internal, only the
// sanctioned shim packages — gsfl/env, gsfl/sim, gsfl/sweep, gsfl/pop,
// gsfl/fleet — may
// import gsfl/internal/... . Commands, examples, and cliutil must build
// entirely on the public API (their non-test sources and their tests
// alike, except the shims' own tests, which may reach behind the
// curtain to set up fixtures).
func TestNoInternalImportsOutsideShims(t *testing.T) {
	root := ".." // this test lives in <repo>/env
	sanctioned := map[string]bool{"env": true, "sim": true, "sweep": true, "pop": true, "fleet": true}

	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "internal" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		top := strings.Split(filepath.ToSlash(rel), "/")[0]
		if sanctioned[top] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "gsfl/internal") {
				violations = append(violations, rel+" imports "+imp.Path.Value)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) > 0 {
		t.Fatalf("gsfl/internal leaked past the env/sim/sweep shims:\n  %s",
			strings.Join(violations, "\n  "))
	}
}
