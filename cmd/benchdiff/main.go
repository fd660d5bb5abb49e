// Command benchdiff compares two Go benchmark result sets and fails on
// regressions — the CI benchmark gate. It reads either raw `go test
// -bench` text or the `go test -json` stream (each line a test2json
// event whose Output fields carry the benchmark lines), so a committed
// baseline can be produced with:
//
//	go test -run '^$' -bench '^(BenchmarkAdvisorRUBiS|BenchmarkAdvisorRUBiSExact|BenchmarkAdvisorFormulation|BenchmarkAdvisorSolve|BenchmarkAdvisorLargeRandwork|BenchmarkPlanSpacesRandwork|BenchmarkSimplex|BenchmarkRefactor|BenchmarkDualWriteOverhead|BenchmarkJournalAppend|BenchmarkLoadSteadyState)$' -benchtime=3x -benchmem -json . ./internal/lp ./internal/journal > BENCH_baseline.json
//
// and compared against a fresh run with:
//
//	benchdiff -baseline BENCH_baseline.json -current current.json
//
// Every benchmark present in both sets is reported; the gated
// benchmarks (-gate, matched against the name with its Benchmark
// prefix, -GOMAXPROCS suffix, and sub-benchmark path stripped) fail
// the run when ns/op or allocs/op regresses by more than -threshold.
// When a benchmark ran multiple times (sub-benchmarks, -count), the
// best (minimum) value per full name is compared, which filters
// scheduling noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's measured values.
type result struct {
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64
	// AllocsPerOp is allocations per operation; negative when the run
	// did not report allocations (-benchmem off).
	AllocsPerOp float64
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline benchmark results (raw text or go test -json)")
	currentPath := flag.String("current", "", "current benchmark results to compare (raw text or go test -json)")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional regression in ns/op and allocs/op before failing")
	gate := flag.String("gate", "AdvisorRUBiS,AdvisorRUBiSExact,AdvisorFormulation,AdvisorSolve,AdvisorLargeRandwork,PlanSpacesRandwork,Simplex,Refactor,DualWriteOverhead,JournalAppend,LoadSteadyState", "comma-separated benchmark names (top level, Benchmark prefix stripped) that fail the run on regression")
	flag.Parse()

	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline BENCH_baseline.json -current current.json [-threshold 0.25] [-gate names]")
		os.Exit(2)
	}
	base, err := parseFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := parseFile(*currentPath)
	if err != nil {
		fatal(err)
	}
	if len(base) == 0 {
		fatal(fmt.Errorf("no benchmark results in baseline %s", *baselinePath))
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark results in current %s", *currentPath))
	}

	gated := map[string]bool{}
	for _, g := range strings.Split(*gate, ",") {
		if g = strings.TrimSpace(g); g != "" {
			gated[g] = true
		}
	}

	report, failures := diff(base, cur, gated, *threshold)
	fmt.Print(report)
	if len(failures) > 0 {
		fmt.Printf("\nFAIL: %d gated regression(s) beyond %.0f%%:\n", len(failures), *threshold*100)
		for _, f := range failures {
			fmt.Printf("  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nOK: no gated benchmark regressed beyond %.0f%%\n", *threshold*100)
}

// gateName returns the top-level benchmark name a gate entry matches:
// the full name with any sub-benchmark path stripped.
func gateName(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// diff renders the comparison table and collects gated failures. The
// gate is airtight about absence: a gated benchmark missing from the
// current run fails (it silently stopped being measured), one missing
// from the baseline fails (the baseline needs regenerating), and a
// gate entry matching no benchmark in either set fails (a typo or a
// deleted benchmark would otherwise disarm the gate forever).
func diff(base, cur map[string]result, gated map[string]bool, threshold float64) (string, []string) {
	var b strings.Builder
	var failures []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	gateSeen := map[string]bool{}

	fmt.Fprintf(&b, "%-40s %15s %15s %8s %10s %6s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs", "gated")
	for _, name := range names {
		old := base[name]
		now, ok := cur[name]
		isGated := gated[gateName(name)]
		mark := ""
		if isGated {
			mark = "yes"
			gateSeen[gateName(name)] = true
		}
		if !ok {
			fmt.Fprintf(&b, "%-40s %15.0f %15s %8s %10s %6s\n", name, old.NsPerOp, "missing", "", "", mark)
			if isGated {
				failures = append(failures, fmt.Sprintf("%s: missing from current results", name))
			}
			continue
		}
		delta := ratio(now.NsPerOp, old.NsPerOp)
		allocs := ""
		allocDelta := 0.0
		if old.AllocsPerOp >= 0 && now.AllocsPerOp >= 0 {
			allocDelta = ratio(now.AllocsPerOp, old.AllocsPerOp)
			allocs = fmt.Sprintf("%+.1f%%", allocDelta*100)
		}
		fmt.Fprintf(&b, "%-40s %15.0f %15.0f %+7.1f%% %10s %6s\n",
			name, old.NsPerOp, now.NsPerOp, delta*100, allocs, mark)
		if !isGated {
			continue
		}
		if delta > threshold {
			failures = append(failures, fmt.Sprintf("%s: ns/op %+.1f%% (%.0f -> %.0f)",
				name, delta*100, old.NsPerOp, now.NsPerOp))
		}
		if allocDelta > threshold {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %+.1f%% (%.0f -> %.0f)",
				name, allocDelta*100, old.AllocsPerOp, now.AllocsPerOp))
		}
	}

	// Benchmarks only the current run knows: report them, and fail any
	// gated one — a gated benchmark without a committed baseline would
	// otherwise pass forever unmeasured.
	var added []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		isGated := gated[gateName(name)]
		mark := ""
		if isGated {
			mark = "yes"
			gateSeen[gateName(name)] = true
		}
		fmt.Fprintf(&b, "%-40s %15s %15.0f %8s %10s %6s\n", name, "missing", cur[name].NsPerOp, "", "", mark)
		if isGated {
			failures = append(failures,
				fmt.Sprintf("%s: missing from baseline — regenerate the committed baseline to gate it", name))
		}
	}

	// Gate entries matching nothing anywhere: fail loudly instead of
	// letting a rename or typo disarm the gate.
	var unseen []string
	for g := range gated {
		if !gateSeen[g] {
			unseen = append(unseen, g)
		}
	}
	sort.Strings(unseen)
	for _, g := range unseen {
		failures = append(failures,
			fmt.Sprintf("%s: gate entry matched no benchmark in baseline or current results", g))
	}
	return b.String(), failures
}

// ratio returns (now-old)/old, treating a zero old value as no change
// (a zero-cost baseline cannot regress by a meaningful fraction).
func ratio(now, old float64) float64 {
	if old == 0 {
		return 0
	}
	return (now - old) / old
}

// testEvent is the subset of a test2json event benchdiff needs.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// parseFile reads benchmark results from a file in either raw bench
// text or go test -json form, keeping the best (minimum) ns/op and
// allocs/op per benchmark name. test2json splits one benchmark result
// line across several output events (the padded name flushes before
// the measurements), so JSON output is reassembled into a per-package
// text stream before line parsing.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var raw strings.Builder
	streams := map[string]*strings.Builder{}
	var pkgs []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					b := streams[ev.Package]
					if b == nil {
						b = &strings.Builder{}
						streams[ev.Package] = b
						pkgs = append(pkgs, ev.Package)
					}
					b.WriteString(ev.Output)
				}
				continue
			}
		}
		raw.WriteString(line)
		raw.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]result{}
	parseText(raw.String(), out)
	for _, pkg := range pkgs {
		parseText(streams[pkg].String(), out)
	}
	return out, nil
}

// parseText scans benchmark result lines out of reassembled test
// output, merging duplicates by per-metric minimum.
func parseText(text string, out map[string]result) {
	for _, line := range strings.Split(text, "\n") {
		name, res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if prev, seen := out[name]; seen {
			if prev.NsPerOp < res.NsPerOp {
				res.NsPerOp = prev.NsPerOp
			}
			if prev.AllocsPerOp >= 0 && (res.AllocsPerOp < 0 || prev.AllocsPerOp < res.AllocsPerOp) {
				res.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[name] = res
	}
}

// parseBenchLine parses one `BenchmarkName-4  10  123 ns/op ...` line.
// The -GOMAXPROCS suffix and the Benchmark prefix are stripped from the
// returned name; sub-benchmark paths are kept.
func parseBenchLine(line string) (string, result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix from the last path element only:
	// sub-benchmark names may legitimately contain dashes.
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := result{NsPerOp: -1, AllocsPerOp: -1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	if res.NsPerOp < 0 {
		return "", result{}, false
	}
	return name, res, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
