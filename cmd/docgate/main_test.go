package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "OTHER.md", "hi")
	doc := write(t, dir, "DOC.md", strings.Join([]string{
		"[ok](OTHER.md)",
		"[anchored](OTHER.md#section)",
		"[external](https://example.com/x)",
		"[pure anchor](#local)",
		"[broken](MISSING.md)",
	}, "\n"))
	v, err := checkLinks(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 || !strings.Contains(v[0], "MISSING.md") {
		t.Errorf("violations = %v, want exactly the broken link", v)
	}
}

func TestCheckFlags(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "tool/main.go", `package main
import "flag"
var level flag.Value
func main() {
	_ = flag.String("in", "", "input")
	_ = flag.Int("workers", 0, "workers")
	_ = flag.Bool("hidden", false, "undocumented")
	flags := flag.NewFlagSet("tool", flag.ContinueOnError)
	_ = flags.Float64("unlisted", 0, "undocumented, on a flag set")
	flag.Var(level, "level", "undocumented, through Var")
	flag.Func("each", "undocumented, through Func", func(string) error { return nil })
}
`)
	write(t, dir, "tool/set.go", `package main
import f "flag"
func set() {
	var n int
	fs := f.NewFlagSet("set", f.ExitOnError)
	fs.IntVar(&n, "count", 0, "undocumented, on a set named fs of an aliased import")
	fs.IntVar(&n, "workers", 0, "documented")
}
`)
	readme := "| `-in` | input |\n| `-workers` | workers |\n"
	v, err := checkFlags(filepath.Join(dir, "tool"), "README.md", readme)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-hidden", "-unlisted", "-level", "-each", "-count"}
	if len(v) != len(want) {
		t.Fatalf("violations = %v, want exactly %v", v, want)
	}
	for i, name := range want {
		if !strings.Contains(v[i], "flag "+name+",") {
			t.Errorf("violation %d = %q, want %s", i, v[i], name)
		}
	}
}

// TestRepoDocsInSync runs the real gate over the repository's own docs
// and commands, so `go test ./...` enforces what CI enforces.
func TestRepoDocsInSync(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		v, err := checkLinks(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range v {
			t.Error(s)
		}
	}
	for _, dir := range []string{"cmd/nose", "cmd/nosebench", "cmd/nosed"} {
		v, err := checkFlags(filepath.Join(root, dir), "README.md", string(readme))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range v {
			t.Error(s)
		}
	}
}
