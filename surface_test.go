package nose_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// surfaceKeep lists the exported functions and methods under internal/
// that no non-test code uses, each with the reason it stays (the same
// reason its doc comment gives). Keys are "package.Func" and
// "package.Type.Method". This is data, not a knob: an entry that no
// longer matches an unused declaration fails the test too.
var surfaceKeep = map[string]string{
	"backend.Dataset.UpdateEntity":      "write side of the reference data: executor differential tests mirror writes into the dataset for Oracle",
	"backend.Dataset.RemoveEntity":      "write side of the reference data, as UpdateEntity",
	"backend.Dataset.Disconnect":        "write side of the reference data, as UpdateEntity",
	"backend.ReplicatedStore.RF":        "harness tests check the replication factor a declared cluster gets, clamped to its size",
	"backend.ReplicatedStore.CFStats":   "harness restart tests count a family's records across a surviving cluster's replicas",
	"bip.Program.Fingerprint":           "search's TestProgramsPinned pins both phases' programs by it, entry order included, which no answer pin catches",
	"enumerator.EnumerateWorkload":      "benchmark hook (root bench_test.go) and fixture of the planner and executor tests",
	"executor.Coordinator.PendingHints": "handoff, read-repair and crash-recovery tests read the hint backlog at one instant",
	"faults.Crashes.Fired":              "journal and crash-scheduler tests ask which crash point fired",
	"faults.Injector.SetProfile":        "harness tests degrade one family",
	"faults.Injector.MarkDown":          "harness tests take one family out",
	"faults.Injector.MarkUp":            "harness tests bring a family back and see its query served again",
	"faults.Nodes.SetProfile":           "hedging and read-repair tests degrade one node",
	"harness.System.DrainLiveMigration": "harness tests finish a migration after their workload and pin its stall guard; crashchaos steps under its own bound",
	"journal.Replay":                    "read-only decode the recovery tests and FuzzJournalReplay drive",
	"model.Path.Reverse":                "the planner's internal tests walk a segment backwards to build the opposite plan",
	"planner.Plan.Signature":            "planner and search tests compare finished plans by structure",
	"search.BuildPlans":                 "benchmark hook: plan-space stage alone (root bench_test.go)",
	"search.Prepare":                    "benchmark hook: formulate once, time the solver alone (root bench_test.go)",
	"search.Prepared.Solve":             "the solver half of that hook, as Prepare",
	"service.Server.ServeHTTP":          "net/http calls it: a Server is the daemon's http.Handler",
	"workload.Query.EqualityPredicates": "the reference generators of the enumerator and planner tests split a query's predicates with it",
	"workload.Query.RangePredicates":    "the other half of that split, as EqualityPredicates",
	"workload.Insert.WriteEntity":       "never called: the method that makes WriteStatement a distinct interface",
	"workload.Update.WriteEntity":       "as Insert.WriteEntity",
	"workload.Delete.WriteEntity":       "as Insert.WriteEntity",
	"workload.Connect.WriteEntity":      "as Insert.WriteEntity",
}

// module is a type-checked Go module: every non-test .go file under its
// root outside testdata and dot directories, the module's own packages
// checked from source with go/types, the standard library read from its
// export data.
type module struct {
	path   string // module path, from go.mod
	fset   *token.FileSet
	files  []*srcFile          // in walk order
	byName map[string]*srcFile // by file name as parsed
	info   *types.Info
	std    types.Importer
	pkgs   map[string]*types.Package // the module's packages, by import path
	uses   map[types.Object][]use    // every use in a non-test file, in source order
}

// srcFile is one non-test file of a module.
type srcFile struct {
	rel string // slash-separated path relative to the module root
	dir string // rel's directory: "." for the root package
	ast *ast.File
}

// use is one identifier in a non-test file that resolves to an object.
type use struct {
	file *srcFile
	pos  token.Pos
}

// loadModule parses and type-checks the module at root.
func loadModule(root string) (*module, error) {
	path, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	m := &module{
		path:   path,
		fset:   token.NewFileSet(),
		byName: map[string]*srcFile{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		pkgs: map[string]*types.Package{},
		uses: map[types.Object][]use{},
	}
	files := map[string][]*ast.File{} // import path -> non-test files
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		sf := &srcFile{rel: filepath.ToSlash(rel), dir: filepath.ToSlash(filepath.Dir(rel)), ast: f}
		m.files = append(m.files, sf)
		m.byName[m.fset.Position(f.Pos()).Filename] = sf
		files[m.importPath(sf.dir)] = append(files[m.importPath(sf.dir)], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	m.std = importer.ForCompiler(m.fset, "gc", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p := m.pkgs[path]; p != nil {
			return p, nil
		}
		src, ok := files[path]
		if !ok {
			return m.std.Import(path)
		}
		p, err := (&types.Config{Importer: imp}).Check(path, m.fset, src, m.info)
		if err != nil {
			return nil, err
		}
		m.pkgs[path] = p
		return p, nil
	}
	for path := range files {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	for id, obj := range m.info.Uses {
		obj = origin(obj)
		m.uses[obj] = append(m.uses[obj], use{m.fileOf(id.Pos()), id.Pos()})
	}
	for _, us := range m.uses {
		slices.SortFunc(us, func(a, b use) int { return cmp.Compare(a.pos, b.pos) })
	}
	return m, nil
}

// importPath is the import path of the module's package in dir, a
// directory relative to the module root.
func (m *module) importPath(dir string) string {
	if dir == "." {
		return m.path
	}
	return m.path + "/" + dir
}

// fileOf is the non-test file that holds pos.
func (m *module) fileOf(pos token.Pos) *srcFile { return m.byName[m.fset.Position(pos).Filename] }

// where is file:line of pos, relative to the module root.
func (m *module) where(pos token.Pos) string {
	return fmt.Sprintf("%s:%d", m.fileOf(pos).rel, m.fset.Position(pos).Line)
}

// origin maps an instantiated generic function or field to its
// declaration, so a use through an instance counts as a use of it.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// repo is the module this test binary runs in, type-checked once and
// shared by every test that reads the source.
var repo struct {
	once sync.Once
	m    *module
	err  error
}

// repoModule returns the type-checked module rooted at the working
// directory, loading it on first use.
func repoModule(t *testing.T) *module {
	t.Helper()
	repo.once.Do(func() { repo.m, repo.err = loadModule(".") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.m
}

// checkSurface returns, sorted:
//
//   - orphans: exported functions and methods declared under
//     internal/ that no non-test file of m uses, and that keep does not
//     list. A function or method is used where an identifier in a
//     non-test file resolves to it; a method is also used where one
//     resolves to the same-named method of an interface its receiver
//     type satisfies, since that call may land on it. fmt calls String
//     and Error on the values production formats, so fmt.Stringer and
//     error count as such interfaces;
//   - stale: keys of keep that match no such unused declaration,
//     because the declaration is gone or production now uses it.
//
// Keys are "package.Func" and "package.Type.Method", so a method that
// shares its name with one production calls on another type is still
// an orphan.
func checkSurface(m *module, keep map[string]string) (orphans, stale []string, err error) {
	fmtPkg, err := m.std.Import("fmt")
	if err != nil {
		return nil, nil, err
	}
	viaInterface := []*types.Func{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface).Method(0),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0),
	}
	for obj := range m.uses {
		f, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			viaInterface = append(viaInterface, f)
		}
	}
	// satisfied reports whether production calls a method named name
	// through an interface that the type a method is declared on
	// satisfies.
	satisfied := func(on *types.Named, name string) bool {
		if on == nil || on.TypeParams().Len() > 0 {
			return false
		}
		for _, m := range viaInterface {
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if m.Name() == name && types.Implements(types.NewPointer(on), iface) {
				return true
			}
		}
		return false
	}

	kept := map[string]bool{}
	for _, sf := range m.files {
		if !strings.HasPrefix(sf.rel, "internal/") {
			continue
		}
		for _, d := range sf.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			f := m.info.Defs[fn.Name].(*types.Func)
			key := f.Pkg().Name() + "." + f.Name()
			var on *types.Named
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				on = t.(*types.Named)
				key = f.Pkg().Name() + "." + on.Obj().Name() + "." + f.Name()
			}
			switch {
			case len(m.uses[f]) > 0 || satisfied(on, f.Name()):
			case keep[key] != "":
				kept[key] = true
			default:
				orphans = append(orphans, fmt.Sprintf("%s (%s)", key, m.where(fn.Pos())))
			}
		}
	}
	for key := range keep {
		if !kept[key] {
			stale = append(stale, key)
		}
	}
	slices.Sort(orphans)
	slices.Sort(stale)
	return orphans, stale, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", root)
}

// TestInternalSurfaceIsCalled keeps "exported from internal/" meaning
// "called by production": every exported function or method under
// internal/ is named by non-test code in cmd/, bench/, examples/, the
// root package or internal/ itself, or is on surfaceKeep with a reason.
// A new helper only its tests call belongs in a _test.go file (or
// export_test.go), not in the package's surface.
func TestInternalSurfaceIsCalled(t *testing.T) {
	orphans, stale, err := checkSurface(repoModule(t), surfaceKeep)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range orphans {
		t.Errorf("%s: exported from internal/ but no non-test code names it: delete it, move it under _test.go, or add it to surfaceKeep with a reason", o)
	}
	for _, key := range stale {
		t.Errorf("surfaceKeep[%q] matches no unreferenced declaration under internal/: drop the entry", key)
	}
	for key, reason := range surfaceKeep {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("surfaceKeep[%q] has no reason", key)
		}
	}
}

// TestSurfaceCheckerOnPlantedTree runs the checker over a small module
// with one exported method nothing names, one function only a _test.go
// file calls, one method whose name production calls on another type,
// one unreferenced function on the keep-list, one function production
// calls and one method production reaches through an interface: exactly
// the first three are reported, and a keep-list entry naming nothing is
// reported stale.
func TestSurfaceCheckerOnPlantedTree(t *testing.T) {
	m := plantModule(t, map[string]string{
		"go.mod": "module m\n",
		"internal/a/a.go": `package a

type T struct{}

func Used() {}
func (T) Orphan() {}
func (*T) unexported() {}
func TestOnly() {}
func Kept() {}

// Collides shares its name with U.Collides, which production calls.
func (T) Collides() {}

type U struct{}

func (U) Collides() {}

// Runner is satisfied by V, whose Run production reaches only through
// the interface.
type Runner interface{ Run() }

type V struct{}

func (*V) Run() {}

func Start(r Runner) { r.Run() }
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { TestOnly(); T{}.Orphan() }
`,
		"internal/a/testdata/ignored.go": `package ignored

func Ignored() {}
`,
		"cmd/x/main.go": `package main

import "m/internal/a"

func Unlisted() {}

func main() { a.Used(); a.U{}.Collides(); a.Start(&a.V{}) }
`,
	})
	orphans, stale, err := checkSurface(m, map[string]string{
		"a.Kept":     "planted keep",
		"a.Vanished": "names nothing",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.T.Collides (internal/a/a.go:12)", "a.T.Orphan (internal/a/a.go:6)", "a.TestOnly (internal/a/a.go:8)"}
	if !slices.Equal(orphans, want) {
		t.Errorf("orphans = %q, want %q", orphans, want)
	}
	if want := []string{"a.Vanished"}; !slices.Equal(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}

// plantModule writes files, keyed by slash path, into a fresh directory
// and loads the module there.
func plantModule(t *testing.T, files map[string]string) *module {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
