package nose_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceKeep lists the exported functions and methods under internal/
// that no non-test code names, each with the reason it stays (the same
// reason its doc comment gives). Keys are "package.Name": the check
// resolves references by bare name, so one entry covers every method of
// that name in the package. This is data, not a knob: an entry that no
// longer matches an unreferenced declaration fails the test too.
var surfaceKeep = map[string]string{
	"backend.UpdateEntity":         "write side of the reference data: executor differential tests mirror writes into the dataset for Oracle",
	"backend.RemoveEntity":         "write side of the reference data, as UpdateEntity",
	"enumerator.EnumerateWorkload": "benchmark hook (root bench_test.go) and fixture of the planner and executor tests",
	"executor.PendingHints":        "handoff, read-repair and crash-recovery tests read the hint backlog at one instant",
	"faults.Fired":                 "journal and crash-scheduler tests ask which crash point fired",
	"faults.SetProfile":            "failover, hedging and read-repair tests degrade one family or one node",
	"journal.Replay":               "read-only decode the recovery tests and FuzzJournalReplay drive",
	"planner.Signature":            "planner and search tests compare finished plans by structure",
	"search.BuildPlans":            "benchmark hook: plan-space stage alone (root bench_test.go)",
	"search.Prepare":               "benchmark hook: formulate once, time the solver alone (root bench_test.go)",
	"workload.WriteEntity":         "never called: the method that makes WriteStatement a distinct interface",
}

// checkSurface parses every non-test .go file under root (go/parser
// only, no type checking) and returns, sorted:
//
//   - orphans: exported functions and methods declared under
//     root/internal whose name no non-test file mentions — anywhere
//     under root, as any identifier other than a declared function or
//     interface method name — and that keep does not list;
//   - stale: keys of keep that match no such unreferenced declaration,
//     because the name is gone from internal/ or production now calls it.
//
// Matching by bare name keeps the check to one pass over the syntax:
// a method passes when production uses its name on any type. The
// types-based count that resolves those is recorded in EXPERIMENTS.md.
func checkSurface(root string, keep map[string]string) (orphans, stale []string, err error) {
	type decl struct{ key, where, name string }
	var decls []decl
	referenced := map[string]bool{}
	fset := token.NewFileSet()
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if internal && n.Name.IsExported() {
					where := f.Name.Name + "."
					if n.Recv != nil {
						where += receiverName(n.Recv.List[0].Type) + "."
					}
					pos := fset.Position(n.Pos())
					decls = append(decls, decl{
						key:   f.Name.Name + "." + n.Name.Name,
						where: fmt.Sprintf("%s%s (%s:%d)", where, n.Name.Name, filepath.ToSlash(rel), pos.Line),
						name:  n.Name.Name,
					})
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						declared[id] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					referenced[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	kept := map[string]bool{}
	for _, d := range decls {
		switch {
		case referenced[d.name]:
		case keep[d.key] != "":
			kept[d.key] = true
		default:
			orphans = append(orphans, d.where)
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

// receiverName names a method's receiver type: T for T, *T and T[P].
func receiverName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// TestInternalSurfaceIsCalled keeps "exported from internal/" meaning
// "called by production": every exported function or method under
// internal/ is named by non-test code in cmd/, bench/, examples/, the
// root package or internal/ itself, or is on surfaceKeep with a reason.
// A new helper only its tests call belongs in a _test.go file (or
// export_test.go), not in the package's surface.
func TestInternalSurfaceIsCalled(t *testing.T) {
	orphans, stale, err := checkSurface(".", surfaceKeep)
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
// file calls, one unreferenced function on the keep-list and one
// function production calls: exactly the first two are reported, and a
// keep-list entry naming nothing is reported stale.
func TestSurfaceCheckerOnPlantedTree(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"internal/a/a.go": `package a

type T struct{}

func Used() {}
func (T) Orphan() {}
func (*T) unexported() {}
func TestOnly() {}
func Kept() {}
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

func main() { a.Used() }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphans, stale, err := checkSurface(root, map[string]string{
		"a.Kept":     "planted keep",
		"a.Vanished": "names nothing",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.T.Orphan (internal/a/a.go:6)", "a.TestOnly (internal/a/a.go:8)"}; !slices.Equal(orphans, want) {
		t.Errorf("orphans = %q, want %q", orphans, want)
	}
	if want := []string{"a.Vanished"}; !slices.Equal(stale, want) {
		t.Errorf("stale = %q, want %q", stale, want)
	}
}
