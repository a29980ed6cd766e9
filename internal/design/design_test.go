// Package design holds the repository's structural invariants as
// tests: rules about the shape of the code that no behavioural test
// can see. It has no non-test files and imports the standard library
// only.
package design

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const module = "gsfl"

// root is the module root, relative to this package's directory.
const root = "../.."

func TestDesign(t *testing.T) {
	t.Run("no exported internal declaration without a caller", testExportedHaveCallers)
}

// unusedAllowed names the exported declarations in internal/ that
// stay without a non-test caller, each with its reason. An entry that
// gains a non-test caller, or names nothing, fails the gate. The tensor
// helpers stay in package tensor because its own tests use them too,
// and those cannot import a helper package that imports tensor. An
// allowed interface method counts as called for the types that
// implement it.
var unusedAllowed = map[string]string{
	"internal/data.All":                     "test helper: a dataset's whole split as one batch, for tests in data, experiment, gsfl and schemes",
	"internal/data.ClassHistogram":          "test helper: the label counts that partition and gtsrb tests assert",
	"internal/data.Source.InShape":          "public as env.DataSource, whose implementers must provide it",
	"internal/data.Source.Sample":           "public as env.DataSource, whose implementers must provide it",
	"internal/gsfl.Trainer.GlobalSnapshots": "test hook: env/deploy_test.go compares a simulated run's per-round globals with a TCP run's",
	"internal/metrics.Curve.IsFinite":       "test helper: training tests assert that no loss or accuracy went non-finite",
	"internal/model.Snapshot.L2Distance":    "test helper: the distance that determinism and convergence tests compare models by",
	"internal/tensor.AllClose":              "tensor test helper: elementwise comparison within a tolerance",
	"internal/tensor.Dot":                   "tensor test helper: the reference inner product of gradient checks",
	"internal/tensor.FromSlice":             "tensor test helper: a tensor from a literal",
	"internal/tensor.Tensor.Apply":          "tensor test helper: an elementwise map",
	"internal/tensor.Tensor.At":             "tensor test helper: reads one element by index",
	"internal/tensor.Tensor.L2Norm":         "tensor test helper: the norm wire and optimizer tests compare by",
	"internal/tensor.Tensor.Mean":           "tensor test helper: the mean that normalization tests assert",
	"internal/tensor.Tensor.Scale":          "tensor test helper: scales in place",
	"internal/tensor.Tensor.Set":            "tensor test helper: writes one element by index",
	"internal/transport.AP.GlobalSnapshots": "test hook: env/deploy_test.go compares a TCP run's per-round globals with a simulated run's",
}

// buildSets are the file sets the gate type-checks: a declaration is
// reached if any of them reaches it.
func buildSets() []build.Context {
	amd64 := build.Default
	amd64.GOARCH = "amd64"
	amd64.CgoEnabled = false
	amd64.BuildTags = nil
	purego := amd64
	purego.BuildTags = []string{"purego"}
	arm64 := amd64
	arm64.GOARCH = "arm64"
	return []build.Context{amd64, purego, arm64}
}

// exempt reports whether an internal package is left out of the
// check. Its code still counts as a caller.
func exempt(path string) bool {
	return path == module+"/internal/bench" ||
		path == module+"/internal/testutil" || strings.HasPrefix(path, module+"/internal/testutil/") ||
		path == module+"/internal/schemes/schemestest"
}

// decl is one exported declaration the gate checks.
type decl struct {
	pos   string     // file:line, relative to the module root
	spans []ast.Node // its own declaration, whose uses of it do not count
}

func testExportedHaveCallers(t *testing.T) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	dirs, err := packageDirs()
	if err != nil {
		t.Fatal(err)
	}

	// The source importer reads the standard library through
	// build.Default. Without cgo, packages such as net type-check from
	// their pure-Go files and no C toolchain is needed. One importer
	// serves every file set: the library's API is the same in each.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	parsed := map[string]*ast.File{}

	decls := map[string]*decl{}
	reached := map[string]bool{}
	for _, ctx := range buildSets() {
		l := &loader{fset: fset, std: std, ctx: ctx, dirs: dirs, parsed: parsed,
			pkgs: map[string]*checked{}}
		for path := range dirs {
			if _, err := l.load(path); err != nil {
				t.Fatal(err)
			}
		}
		l.collect(decls, reached)
	}

	var unused []string
	for _, k := range slices.Sorted(maps.Keys(decls)) {
		d := decls[k]
		_, allowed := unusedAllowed[k]
		switch {
		case reached[k] && allowed:
			t.Errorf("%s (%s) is allow-listed but has a non-test caller: drop its entry", k, d.pos)
		case !reached[k] && !allowed:
			unused = append(unused, fmt.Sprintf("%s (%s)", k, d.pos))
		}
	}
	for _, k := range slices.Sorted(maps.Keys(unusedAllowed)) {
		if decls[k] == nil {
			t.Errorf("allow-list entry %s names no exported declaration: drop it", k)
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported declarations in internal/ have no non-test caller; delete them, or allow-list them with a reason:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// packageDirs maps every module package's import path to its
// directory.
func packageDirs() (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := module
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = path
		return nil
	})
	return dirs, err
}

type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the module's non-test files under one build
// context, each package once, in import order.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	ctx    build.Context
	dirs   map[string]string
	parsed map[string]*ast.File // by file name, shared by every context
	pkgs   map[string]*checked  // nil once a directory proves to hold no package
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	c, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("%s: no Go files for %s/%s", path, l.ctx.GOOS, l.ctx.GOARCH)
	}
	return c.pkg, nil
}

func (l *loader) load(path string) (*checked, error) {
	if c, ok := l.pkgs[path]; ok {
		return c, nil
	}
	dir := l.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		fn := filepath.Join(dir, name)
		f := l.parsed[fn]
		if f == nil {
			if f, err = parser.ParseFile(l.fset, fn, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.parsed[fn] = f
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s for %s: %v", path, l.ctx.GOARCH, err)
	}
	c := &checked{pkg: pkg, files: files, info: info}
	l.pkgs[path] = c
	return c, nil
}

// collect adds this context's checked declarations to decls and what
// its non-test code reaches to reached.
func (l *loader) collect(decls map[string]*decl, reached map[string]bool) {
	for path, c := range l.pkgs {
		if c == nil || !strings.HasPrefix(path, module+"/internal/") || exempt(path) {
			continue
		}
		l.declsOf(c, decls)
	}

	// Every use outside the used declaration's own body reaches it.
	var ifaceMethods []*types.Func
	for _, c := range l.pkgs {
		if c == nil {
			continue
		}
		for id, obj := range c.info.Uses {
			if f, ok := obj.(*types.Func); ok && interfaceOf(f) != nil {
				ifaceMethods = append(ifaceMethods, f)
			}
			k := key(obj)
			if k == "" {
				continue
			}
			if d := decls[k]; d != nil && d.within(id.Pos()) {
				continue
			}
			reached[k] = true
		}
	}

	// The standard library calls its own interfaces' methods on the
	// module's values (fmt on a Stringer, io.Copy on a WriterTo), from
	// code the gate does not read: every such method counts as called.
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := l.dirs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
						for i := 0; i < it.NumMethods(); i++ {
							ifaceMethods = append(ifaceMethods, it.Method(i))
						}
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, c := range l.pkgs {
		if c == nil {
			continue
		}
		walk(c.pkg)
		for _, name := range c.pkg.Scope().Names() {
			if it, ok := c.pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if _, allowed := unusedAllowed[key(it.ExplicitMethod(i))]; allowed {
						ifaceMethods = append(ifaceMethods, it.ExplicitMethod(i))
					}
				}
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaceMethods = append(ifaceMethods, errIface.Method(0))

	// A method is reached when an interface method it implements is.
	byIface := map[*types.Interface][]*types.Func{}
	for _, m := range ifaceMethods {
		it := interfaceOf(m)
		byIface[it] = append(byIface[it], m)
	}
	for _, c := range l.pkgs {
		if c == nil {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for it, ms := range byIface {
				if !implements(ptr, it) {
					continue
				}
				for _, m := range ms {
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						if k := key(obj); k != "" {
							reached[k] = true
						}
					}
				}
			}
		}
	}
}

func implements(t types.Type, it *types.Interface) bool {
	if it.IsMethodSet() {
		return types.Implements(t, it)
	}
	return types.Satisfies(t, it)
}

// interfaceOf returns the interface that declares m, or nil when m is
// a concrete method or function.
func interfaceOf(m *types.Func) *types.Interface {
	recv := m.Signature().Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	it, _ := t.Underlying().(*types.Interface)
	return it
}

// declsOf records a checked package's exported package-level
// declarations and methods.
func (l *loader) declsOf(c *checked, decls map[string]*decl) {
	add := func(obj types.Object, spans ...ast.Node) {
		k := key(obj)
		if k == "" || !obj.Exported() {
			return
		}
		d := decls[k]
		if d == nil {
			p := l.fset.Position(obj.Pos())
			rel, _ := filepath.Rel(root, p.Filename)
			d = &decl{pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line)}
			decls[k] = d
		}
		d.spans = append(d.spans, spans...)
	}
	for _, f := range c.files {
		for _, dcl := range f.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				obj := c.info.Defs[dcl.Name]
				add(obj, dcl)
				if dcl.Recv != nil {
					// A type's own methods do not reach it: a caller
					// needs a value first.
					if named := receiverNamed(obj); named != nil && named.Obj().Exported() {
						add(named.Obj(), dcl)
					}
				}
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := c.info.Defs[spec.Name]
						add(obj, spec)
						if it, ok := obj.Type().Underlying().(*types.Interface); ok {
							for i := 0; i < it.NumExplicitMethods(); i++ {
								add(it.ExplicitMethod(i))
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if obj := c.info.Defs[id]; obj != nil {
								add(obj, spec)
							}
						}
					}
				}
			}
		}
	}
}

func (d *decl) within(pos token.Pos) bool {
	for _, n := range d.spans {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

func receiverNamed(obj types.Object) *types.Named {
	f, ok := obj.(*types.Func)
	if !ok || f.Signature().Recv() == nil {
		return nil
	}
	t := f.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// key names a module object the same way in every build context:
// "internal/pkg.Name" or "internal/pkg.Type.Method". It is "" for
// anything that is not a package-level declaration or a method of a
// named type declared in the module.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != module && !strings.HasPrefix(path, module+"/") {
		return ""
	}
	path = strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if o.Signature().Recv() != nil {
			named := receiverNamed(o)
			if named == nil {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}
