package nose_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// designPin is one rule of the design that no golden file pins: there
// is one way to assemble a system, draw a fault, keep a counter, drive
// a sweep, formulate and plan an advise, run a query and enumerate.
// Each rule names declarations by package path and name and resolves
// them with go/types, so a comment or a string never trips it and an
// aliased import never dodges it, and a rule whose declaration is gone
// fails until the rule is updated.
type designPin struct {
	name string
	why  string
	// check returns the rule's violations over m, one line each.
	check func(m *module) []string
}

// designPins are the design's rules. A declaration is written
// "pkg.Name" or "pkg.Type.Member"; a package path that begins
// internal/ is the module's, any other the standard library's.
var designPins = []designPin{
	{
		name: "One assembly point",
		why: "harness.New is the only code that stacks the data plane's layers, so a tap, an injector, a node fault set " +
			"or a coordinator built anywhere else is a second way to assemble a system (executor.New is not listed: " +
			"bench/ calls it for its timed executor)",
		check: func(m *module) []string {
			return m.confined(anywhere, under("internal/harness/"),
				"internal/verify.NewTap", "internal/faults.New", "internal/faults.NewNodes", "internal/executor.NewCoordinator")
		},
	},
	{
		name: "One fault model",
		why: "a column family and a node are the same seeded fault domain: internal/faults starts a stream in one place " +
			"(newDomain) and draws a fault band in one place (the domain's decide)",
		check: func(m *module) []string {
			return m.counted(inDir("internal/faults"), 1, "math/rand.NewSource", "math/rand.Rand.Float64")
		},
	},
	{
		name: "One ledger",
		why: "a data-plane number lives in its system's registry and nowhere else: under internal/, only harness.New " +
			"makes a registry (one per system) and only the service makes one per job",
		check: func(m *module) []string {
			return m.confined(under("internal/"), inFile("internal/harness/config.go", "internal/service/service.go"),
				"internal/obs.NewRegistry")
		},
	},
	{
		name: "One ledger (advisor): counter names",
		why:  "each advisor layer counts its own work into the registry it is handed, so only the package that does the work names its counters",
		check: func(m *module) []string {
			return m.counterNames(map[string]string{"lp.": "internal/lp", "planner.": "internal/planner"},
				"internal/obs.Registry.Counter", "internal/obs.Registry.VolatileCounter")
		},
	},
	{
		name: "One ledger (advisor): no mirror types",
		why:  "no type mirrors registry counters for another package to publish",
		check: func(m *module) []string {
			return m.declared(anywhere, func(obj types.Object) bool { _, ok := obj.(*types.TypeName); return ok },
				"SolverStats", "Counts")
		},
	},
	{
		name: "One sweep driver",
		why: "in internal/experiments only sweep.go builds a measured system, hands it a trace lane and merges its " +
			"registry into the run's, so a sweep that wires its own has grown a second driver",
		check: func(m *module) []string {
			return m.confined(inDir("internal/experiments"), inFile("internal/experiments/sweep.go"),
				"internal/harness.New", "internal/harness.System.EnableTrace", "internal/obs.Registry.Merge")
		},
	},
	{
		name: "One advisor driver: one enumeration, one program",
		why: "Advise, AdviseSeries and AdvisePinned all run search's advise, so one call enumerates candidates and " +
			"one makes a program; formulate runs the one emission twice (a counter that sizes the program, then the " +
			"program), and a second call of formulate or formulatePhase is a second formulation coming back",
		check: func(m *module) []string {
			return m.counted(inDir("internal/search"), 1,
				"internal/enumerator.EnumerateWorkloadCtx", "internal/bip.New",
				"internal/search.Prepared.formulate", "internal/search.builder.formulatePhase")
		},
	},
	{
		name: "One advisor driver: one planner",
		why: "the one planner.New outside its package is Prepared.plan's, so every recommendation, the baselines' " +
			"included, is planned, priced and filtered by the same code",
		check: func(m *module) []string {
			return append(m.confined(anywhere, inDir("internal/search"), "internal/planner.New"),
				m.counted(inDir("internal/search"), 1, "internal/planner.New")...)
		},
	},
	{
		name: "One advisor driver: baselines build pools",
		why:  "internal/baselines only builds pools, which the advisor evaluates: it imports neither the planner nor the advisor",
		check: func(m *module) []string {
			return m.imports(inDir("internal/baselines"), "internal/planner", "internal/search")
		},
	},
	{
		name: "One advisor driver: one evaluator",
		why: "a fixed schema's point is written by one evaluator for the greedy start and the baselines alike: a " +
			"builder that knows a pool is pinned, or a second warm-start writer (greedyPhase), is a second path",
		check: func(m *module) []string {
			return append(m.noMember("internal/search.builder", "pinned"),
				m.declared(inDir("internal/search"), nil, "greedyPhase")...)
		},
	},
	{
		name: "One plan per query: one RunQuery",
		why:  "a query runs its recommended plan, and the harness runs a query in one place (execQuery)",
		check: func(m *module) []string {
			return m.counted(inDir("internal/harness"), 1, "internal/executor.Executor.RunQuery")
		},
	},
	{
		name: "One plan per query: no alternatives",
		why:  "a fault that outlives the executor's retries makes a query unavailable; no code keeps alternative plans to reroute through",
		check: func(m *module) []string {
			return m.declared(anywhere, nil, "Alternatives")
		},
	},
	{
		name: "One goroutine enumerates",
		why: "Algorithm 1 over a worker pool with a lock-shared memo measured no faster at two workers than at one " +
			"(EXPERIMENTS.md), so the enumerator runs on the caller's goroutine with plain maps and no per-worker state",
		check: func(m *module) []string {
			return append(m.imports(inDir("internal/enumerator"), "sync", "internal/par"),
				m.named(inDir("internal/enumerator"), "newWork", "DoWorker")...)
		},
	},
	{
		name: "Package comments",
		why:  "every package under internal/, two levels deep, says what it is in a godoc package comment",
		check: func(m *module) []string {
			return m.packageComments(func(dir string) bool {
				n := strings.Count(dir, "/")
				return strings.HasPrefix(dir, "internal/") && (n == 1 || n == 2)
			})
		},
	},
}

// scope selects the files of a module a rule looks at.
type scope func(f *srcFile) bool

func anywhere(*srcFile) bool { return true }

// inDir is the package in dir, relative to the module root.
func inDir(dir string) scope { return func(f *srcFile) bool { return f.dir == dir } }

// under is every file whose path relative to the module root begins
// with prefix.
func under(prefix string) scope {
	return func(f *srcFile) bool { return strings.HasPrefix(f.rel, prefix) }
}

// inFile is the named files, relative to the module root.
func inFile(rels ...string) scope {
	return func(f *srcFile) bool { return slices.Contains(rels, f.rel) }
}

// pkgPath is the import path of a rule's package: the module's own
// when it begins internal/, the standard library's otherwise.
func (m *module) pkgPath(path string) string {
	if strings.HasPrefix(path, "internal/") {
		return m.path + "/" + path
	}
	return path
}

// lookup resolves a declaration written "pkg.Name" or
// "pkg.Type.Member" (a method or field, through embedding too).
func (m *module) lookup(ref string) (types.Object, error) {
	slash := strings.LastIndex(ref, "/")
	names := strings.Split(ref[slash+1:], ".")
	if len(names) < 2 || len(names) > 3 {
		return nil, fmt.Errorf("%s: want pkg.Name or pkg.Type.Member", ref)
	}
	path := ref[:slash+1] + names[0]
	pkg := m.pkgs[m.pkgPath(path)]
	if pkg == nil {
		var err error
		if pkg, err = m.std.Import(path); err != nil {
			return nil, fmt.Errorf("%s: no package %s", ref, path)
		}
	}
	obj := pkg.Scope().Lookup(names[1])
	if obj != nil && len(names) == 3 {
		obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, pkg, names[2])
	}
	if obj == nil {
		return nil, fmt.Errorf("%s: no such declaration, so the rule is stale", ref)
	}
	return obj, nil
}

// usesOf returns what ref resolves to and its uses in the files in, or
// an error when it resolves to nothing.
func (m *module) usesOf(ref string, in scope) (types.Object, []use, error) {
	obj, err := m.lookup(ref)
	if err != nil {
		return nil, nil, err
	}
	var us []use
	for _, u := range m.uses[origin(obj)] {
		if in(u.file) {
			us = append(us, u)
		}
	}
	return obj, us, nil
}

// confined reports each use of refs in the files in that lies neither
// in the files allowed nor in the package that declares it.
func (m *module) confined(in, allowed scope, refs ...string) []string {
	var v []string
	for _, ref := range refs {
		obj, us, err := m.usesOf(ref, in)
		if err != nil {
			v = append(v, err.Error())
			continue
		}
		for _, u := range us {
			if !allowed(u.file) && m.importPath(u.file.dir) != obj.Pkg().Path() {
				v = append(v, fmt.Sprintf("%s: uses %s", m.where(u.pos), ref))
			}
		}
	}
	return v
}

// counted reports each of refs that the files in do not use exactly n
// times.
func (m *module) counted(in scope, n int, refs ...string) []string {
	var v []string
	for _, ref := range refs {
		_, us, err := m.usesOf(ref, in)
		if err != nil {
			v = append(v, err.Error())
			continue
		}
		if len(us) != n {
			at := make([]string, len(us))
			for i, u := range us {
				at[i] = m.where(u.pos)
			}
			v = append(v, fmt.Sprintf("%s used %d times, want %d: %s", ref, len(us), n, strings.Join(at, ", ")))
		}
	}
	return v
}

// identifiers returns, in source order, the identifiers in the files in
// named one of names: those that declare an object when defs is set,
// those that use one when it is not.
func (m *module) identifiers(in scope, defs bool, names []string) []*ast.Ident {
	idents := m.info.Uses
	if defs {
		idents = m.info.Defs
	}
	var found []*ast.Ident
	for id, obj := range idents {
		if obj != nil && slices.Contains(names, id.Name) && in(m.fileOf(id.Pos())) {
			found = append(found, id)
		}
	}
	slices.SortFunc(found, func(a, b *ast.Ident) int { return cmp.Compare(a.Pos(), b.Pos()) })
	return found
}

// declared reports each declaration in the files in named one of names
// whose object kind accepts; a nil kind accepts every object.
func (m *module) declared(in scope, kind func(types.Object) bool, names ...string) []string {
	var v []string
	for _, id := range m.identifiers(in, true, names) {
		if kind == nil || kind(m.info.Defs[id]) {
			v = append(v, fmt.Sprintf("%s: declares %s", m.where(id.Pos()), id.Name))
		}
	}
	return v
}

// named reports each identifier, declared or used, in the files in
// named one of names.
func (m *module) named(in scope, names ...string) []string {
	v := m.declared(in, nil, names...)
	for _, id := range m.identifiers(in, false, names) {
		v = append(v, fmt.Sprintf("%s: names %s", m.where(id.Pos()), id.Name))
	}
	return v
}

// noMember reports a field or method name on the type typ.
func (m *module) noMember(typ, name string) []string {
	if _, err := m.lookup(typ); err != nil {
		return []string{err.Error()}
	}
	if obj, err := m.lookup(typ + "." + name); err == nil {
		return []string{fmt.Sprintf("%s: %s has %s", m.where(obj.Pos()), typ, name)}
	}
	return nil
}

// imports reports each import, in the files in, of one of paths or of
// a package below it.
func (m *module) imports(in scope, paths ...string) []string {
	var v []string
	for _, f := range m.files {
		if !in(f) {
			continue
		}
		for _, spec := range f.ast.Imports {
			got, _ := strconv.Unquote(spec.Path.Value)
			for _, p := range paths {
				if p = m.pkgPath(p); got == p || strings.HasPrefix(got, p+"/") {
					v = append(v, fmt.Sprintf("%s: imports %s", m.where(spec.Pos()), got))
				}
			}
		}
	}
	return v
}

// counterNames reports each call of one of the counter constructors
// whose name is a constant with one of owners' prefixes, made outside
// the package that owns the prefix.
func (m *module) counterNames(owners map[string]string, constructors ...string) []string {
	var v []string
	var funcs []types.Object
	for _, ref := range constructors {
		obj, err := m.lookup(ref)
		if err != nil {
			v = append(v, err.Error())
			continue
		}
		funcs = append(funcs, obj)
	}
	for _, f := range m.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(funcs, origin(m.info.Uses[sel.Sel])) {
				return true
			}
			tv := m.info.Types[call.Args[0]]
			if tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			name := constant.StringVal(tv.Value)
			for prefix, owner := range owners {
				if strings.HasPrefix(name, prefix) && f.dir != owner {
					v = append(v, fmt.Sprintf("%s: names counter %q outside %s", m.where(call.Pos()), name, owner))
				}
			}
			return true
		})
	}
	return v
}

// packageComments reports each directory that dirs selects, holds
// non-test Go files and has no "// Package" doc comment on any of them.
func (m *module) packageComments(dirs func(dir string) bool) []string {
	var order []string
	documented := map[string]bool{}
	for _, f := range m.files {
		if !dirs(f.dir) {
			continue
		}
		if _, seen := documented[f.dir]; !seen {
			order = append(order, f.dir)
		}
		documented[f.dir] = documented[f.dir] || strings.HasPrefix(f.ast.Doc.Text(), "Package ")
	}
	var v []string
	for _, dir := range order {
		if !documented[dir] {
			v = append(v, fmt.Sprintf("%s/: no package comment", dir))
		}
	}
	return v
}

// TestDesignPins holds the module to every design pin.
func TestDesignPins(t *testing.T) {
	m := repoModule(t)
	for _, p := range designPins {
		for _, v := range p.check(m) {
			t.Errorf("%s: %s\n\twhy: %s", p.name, v, p.why)
		}
	}
}

// TestDesignPinsOnPlantedTree runs every pin over a small module that
// breaks each of them exactly once, and holds each pin to exactly that
// one violation. Three cases show that the rules read types, not text:
// a call through an aliased import is reported, while a comment that
// names faults.New( outside internal/harness and a string that holds
// bip.New() in internal/search are not. A rule whose declaration is
// gone reports itself stale.
func TestDesignPinsOnPlantedTree(t *testing.T) {
	m := plantModule(t, map[string]string{
		"go.mod": "module m\n",
		"cmd/x/main.go": `package main

import (
	f "m/internal/faults"
	"m/internal/planner"
)

// faults.New( is called only by the harness; this comment names it.
func main() {
	f.New()
	planner.New()
}
`,
		"internal/verify/verify.go": `package verify

func NewTap() {}
`,
		"internal/faults/faults.go": `// Package faults is planted.
package faults

import "math/rand"

func New()      {}
func NewNodes() {}

func draw(seed int64) float64 { return rand.New(rand.NewSource(seed)).Float64() }

func again(r *rand.Rand) float64 { return r.Float64() }
`,
		"internal/executor/executor.go": `// Package executor is planted.
package executor

type Executor struct{}

func (*Executor) RunQuery() {}

func NewCoordinator() {}
`,
		"internal/obs/obs.go": `// Package obs is planted.
package obs

type Registry struct{}

func NewRegistry() *Registry                      { return &Registry{} }
func (*Registry) Counter(name string) int         { return 0 }
func (*Registry) VolatileCounter(name string) int { return 0 }
func (*Registry) Merge(*Registry)                 {}
`,
		"internal/harness/config.go": `// Package harness is planted.
package harness

import (
	"m/internal/executor"
	"m/internal/faults"
	"m/internal/obs"
	"m/internal/verify"
)

type System struct{ reg *obs.Registry }

func (*System) EnableTrace() {}

func New() *System {
	verify.NewTap()
	faults.New()
	faults.NewNodes()
	executor.NewCoordinator()
	return &System{reg: obs.NewRegistry()}
}
`,
		"internal/harness/exec.go": `package harness

import (
	"m/internal/executor"
	"m/internal/obs"
)

func execQuery(e *executor.Executor) { e.RunQuery() }

func reroute(e *executor.Executor) { e.RunQuery() }

var private = obs.NewRegistry()
`,
		"internal/service/service.go": `// Package service is planted.
package service

import "m/internal/obs"

var jobs = obs.NewRegistry()
`,
		"internal/lp/lp.go": `// Package lp is planted.
package lp

import "m/internal/obs"

const prefix = "lp."

func Bind(r *obs.Registry) { r.Counter(prefix + "solves") }
`,
		"internal/planner/planner.go": `// Package planner is planted.
package planner

import "m/internal/obs"

func New() {}

func Bind(r *obs.Registry, name string) { r.Counter("planner.steps"); r.Counter(name) }

type Counts struct{ Steps int }

type Plan struct{ Alternatives []int }
`,
		"internal/bip/bip.go": `// Package bip is planted.
package bip

import "m/internal/obs"

func New() {}

func Bind(r *obs.Registry) { r.VolatileCounter("lp.pivots") }
`,
		"internal/enumerator/enumerator.go": `// Package enumerator is planted.
package enumerator

import "sync/atomic"

var n atomic.Int64

func EnumerateWorkloadCtx() {}
`,
		"internal/search/search.go": `// Package search is planted.
package search

import (
	"m/internal/bip"
	"m/internal/enumerator"
	"m/internal/planner"
)

const note = "bip.New() runs once per advise"

type Prepared struct{ b builder }

type builder struct{ rows int }

func (p *Prepared) formulate() { p.b.formulatePhase() }

func (b *builder) formulatePhase() { b.rows++ }

func advise() {
	enumerator.EnumerateWorkloadCtx()
	enumerator.EnumerateWorkloadCtx()
	bip.New()
	planner.New()
	var p Prepared
	p.formulate()
}

func greedyPhase() {}
`,
		"internal/baselines/baselines.go": `// Package baselines is planted.
package baselines

import _ "m/internal/search"
`,
		"internal/experiments/sweep.go": `// Package experiments is planted.
package experiments

import (
	"m/internal/harness"
	"m/internal/obs"
)

func sweep(run, sys *obs.Registry) {
	s := harness.New()
	s.EnableTrace()
	run.Merge(sys)
}
`,
		"internal/experiments/online.go": `package experiments

import "m/internal/obs"

func online(run, sys *obs.Registry) { run.Merge(sys) }
`,
	})
	want := map[string]string{
		"One assembly point":                               "cmd/x/main.go:10: uses internal/faults.New",
		"One fault model":                                  "math/rand.Rand.Float64 used 2 times",
		"One ledger":                                       "internal/harness/exec.go:12:",
		"One ledger (advisor): counter names":              `internal/bip/bip.go:8: names counter "lp.pivots"`,
		"One ledger (advisor): no mirror types":            "internal/planner/planner.go:10: declares Counts",
		"One sweep driver":                                 "internal/experiments/online.go:5:",
		"One advisor driver: one enumeration, one program": "internal/enumerator.EnumerateWorkloadCtx used 2 times",
		"One advisor driver: one planner":                  "cmd/x/main.go:11: uses internal/planner.New",
		"One advisor driver: baselines build pools":        "internal/baselines/baselines.go:4: imports m/internal/search",
		"One advisor driver: one evaluator":                "declares greedyPhase",
		"One plan per query: one RunQuery":                 "internal/executor.Executor.RunQuery used 2 times",
		"One plan per query: no alternatives":              "internal/planner/planner.go:12: declares Alternatives",
		"One goroutine enumerates":                         "imports sync/atomic",
		"Package comments":                                 "internal/verify/: no package comment",
	}
	for _, p := range designPins {
		got := p.check(m)
		if len(got) != 1 || !strings.Contains(got[0], want[p.name]) || want[p.name] == "" {
			t.Errorf("%s: violations %q, want one containing %q", p.name, got, want[p.name])
		}
		delete(want, p.name)
	}
	for name := range want {
		t.Errorf("no pin named %q", name)
	}

	for _, ref := range []string{"internal/faults.Vanished", "math/rand.Rand.Vanished", "internal/vanished.New"} {
		if got := m.counted(anywhere, 1, ref); len(got) != 1 || !strings.Contains(got[0], ref+": no ") {
			t.Errorf("counted(%s) = %q, want one report that it names nothing", ref, got)
		}
	}
}
