// Command docgate is the CI documentation gate. It fails the build
// when the docs drift from the code:
//
//   - every relative markdown link in the checked documents must
//     resolve to an existing file (external http(s) links and pure
//     anchors are skipped);
//   - every CLI flag defined in cmd/nose, cmd/nosebench and cmd/nosed
//     must appear in the README's flag tables as `-name`, so a new flag
//     cannot ship undocumented;
//   - every HTTP route the nosed daemon registers
//     (internal/service.Routes) must appear in docs/API.md as
//     `METHOD /path`, and every `METHOD /path` code span in docs/API.md
//     must name a registered route — the API reference can neither lag
//     the server nor document ghosts.
//
// Usage (from the repository root):
//
//	go run ./cmd/docgate
//	go run ./cmd/docgate -docs README.md,DESIGN.md -cmds cmd/nose
//
// Exit status 0 means the docs are in sync; 1 lists every violation.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"nose/internal/service"
)

func main() {
	docs := flag.String("docs", "README.md,DESIGN.md,EXPERIMENTS.md,ROADMAP.md,docs/API.md",
		"comma-separated markdown files whose relative links must resolve")
	readme := flag.String("readme", "README.md", "document that must mention every CLI flag")
	cmds := flag.String("cmds", "cmd/nose,cmd/nosebench,cmd/nosed", "comma-separated command directories whose flags must be documented")
	apiDoc := flag.String("api", "docs/API.md", "endpoint reference that must document every nosed route; empty disables the route guard")
	flag.Parse()

	var violations []string
	for _, doc := range strings.Split(*docs, ",") {
		doc = strings.TrimSpace(doc)
		if doc == "" {
			continue
		}
		v, err := checkLinks(doc)
		if err != nil {
			fatal(err)
		}
		violations = append(violations, v...)
	}

	readmeText, err := os.ReadFile(*readme)
	if err != nil {
		fatal(err)
	}
	for _, dir := range strings.Split(*cmds, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		v, err := checkFlags(dir, *readme, string(readmeText))
		if err != nil {
			fatal(err)
		}
		violations = append(violations, v...)
	}

	if *apiDoc != "" {
		v, err := checkRoutes(*apiDoc)
		if err != nil {
			fatal(err)
		}
		violations = append(violations, v...)
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "docgate:", v)
		}
		fmt.Fprintf(os.Stderr, "docgate: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docgate: docs are in sync")
}

// linkRe matches inline markdown links [text](target). Images share the
// syntax and are checked the same way.
var linkRe = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// checkLinks verifies every relative link in one markdown file resolves
// to an existing file, relative to the file's directory.
func checkLinks(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var violations []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Drop an anchor suffix: FILE.md#section checks FILE.md.
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				violations = append(violations,
					fmt.Sprintf("%s:%d: broken link %q (resolved %s)", doc, i+1, m[1], resolved))
			}
		}
	}
	return violations, nil
}

// checkFlags verifies every flag a command defines is mentioned in the
// README as `-name`. It parses the command's non-test files and takes
// the name argument of every flag-definition call on the flag package
// or on a variable assigned from flag.NewFlagSet, whatever either is
// called in the file.
func checkFlags(dir, readmeName, readme string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var violations []string
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, arg := range flagNames(f) {
			lit, ok := arg.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				violations = append(violations,
					fmt.Sprintf("%s: a flag's name is not a string literal", fset.Position(arg.Pos())))
				continue
			}
			name, _ := strconv.Unquote(lit.Value) // a parsed string literal always unquotes
			if !strings.Contains(readme, "`-"+name+"`") {
				violations = append(violations,
					fmt.Sprintf("%s defines flag -%s, absent from %s (add a `-%s` row to its flag table)",
						dir, name, readmeName, name))
			}
		}
	}
	return violations, nil
}

// flagDefiners are the flag package's functions, and *flag.FlagSet's
// methods, that define a flag. Each takes the flag's name first, or
// second when its name ends in Var (the first is then where the value
// lives).
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "Uint": true, "UintVar": true,
	"Uint64": true, "Uint64Var": true, "Float64": true, "Float64Var": true,
	"String": true, "StringVar": true, "Duration": true, "DurationVar": true,
	"Var": true, "TextVar": true, "Func": true, "BoolFunc": true,
}

// flagNames returns, in source order, the name argument of every flag
// definition in f.
func flagNames(f *ast.File) []ast.Expr {
	pkg := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"flag"` {
			pkg = "flag"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return nil
	}
	// isPkgCall reports whether e calls pkg.fn.
	isPkgCall := func(e ast.Expr, fn string) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg && sel.Sel.Name == fn
	}
	sets := map[string]bool{pkg: true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok && isPkgCall(rhs, "NewFlagSet") {
					sets[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if isPkgCall(v, "NewFlagSet") {
					sets[n.Names[i].Name] = true
				}
			}
		}
		return true
	})
	var names []ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagDefiners[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || !sets[id.Name] {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if arg < len(call.Args) {
			names = append(names, call.Args[arg])
		}
		return true
	})
	return names
}

// routeRe matches backticked route spans in the API reference:
// `GET /v1/jobs/{id}`.
var routeRe = regexp.MustCompile("`(GET|POST|PUT|DELETE|PATCH) (/[^`]*)`")

// checkRoutes verifies the API reference and the daemon's registered
// route table (internal/service.Routes) agree in both directions:
// every registered route is documented, and every documented route is
// registered.
func checkRoutes(doc string) ([]string, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	registered := map[string]bool{}
	for _, r := range service.Routes {
		registered[r.Method+" "+r.Pattern] = false
	}
	var violations []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range routeRe.FindAllStringSubmatch(line, -1) {
			key := m[1] + " " + m[2]
			if _, ok := registered[key]; !ok {
				violations = append(violations,
					fmt.Sprintf("%s:%d: documents route %q, which nosed does not register", doc, i+1, key))
				continue
			}
			registered[key] = true
		}
	}
	for _, r := range service.Routes {
		if !registered[r.Method+" "+r.Pattern] {
			violations = append(violations,
				fmt.Sprintf("nosed registers %s %s, absent from %s (add a `%s %s` section)",
					r.Method, r.Pattern, doc, r.Method, r.Pattern))
		}
	}
	return violations, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docgate:", err)
	os.Exit(1)
}
