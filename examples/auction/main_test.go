package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wallClock matches the advisor's wall-clock time at the end of the
// output's third line, the one part of it that is not deterministic.
var wallClock = regexp.MustCompile(` in [^ ]*$`)

// TestOutputMatchesGolden runs the example the README points at and
// holds what it prints, the advisor's wall-clock time stripped, to
// what it printed when the golden was taken.
func TestOutputMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "auction-example.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("output has %d lines:\n%s", len(lines), out.Bytes())
	}
	lines[2] = wallClock.ReplaceAllString(lines[2], "")
	if got := strings.Join(lines, "\n"); got != string(want) {
		t.Errorf("output differs from testdata/auction-example.golden.txt:\n%s", got)
	}
}
