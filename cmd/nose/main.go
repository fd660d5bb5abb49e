// Command nose is the NoSQL Schema Evaluator CLI: it reads a
// conceptual model and weighted workload from a .nose file and prints
// the recommended column family schema and one implementation plan per
// statement (paper Fig. 2's inputs and outputs).
//
// Usage:
//
//	nose -in workload.nose [-space bytes] [-mix name] [-max-plans n] [-workers n] [-phases] [-drift-report] [-json] [-v]
//
// With -json the recommendation (or, with -phases, the schema series,
// or, with -drift-report, the drift report document) is printed as
// canonical JSON in the nosed wire format (internal/service/api)
// instead of the human-readable report. The bytes are deterministic and
// identical to what the nosed daemon serves for the same request: both
// are produced by api.Request.Run, and internal/service's
// TestHTTPAdviseByteIdenticalToCLI diffs the two.
//
// With -phases (and a workload whose .nose file declares phase blocks)
// the advisor solves the time-dependent problem instead: one schema per
// phase, linked by migration charges, printed as a schema series with
// the column families built and dropped at each boundary (see
// search.AdviseSeries).
//
// With -drift-report (and a workload declaring at least two mixes) the
// report adds one line per declared mix: its total-variation divergence
// from the active mix, whether the default online drift detector would
// call that drift, and how many column families a migration from the
// active mix's schema to that mix's schema would build and drop (see
// internal/drift and internal/migrate).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

func main() {
	in := flag.String("in", "", "input .nose file (model + workload)")
	space := flag.Float64("space", 0, "optional storage budget in bytes")
	mix := flag.String("mix", "", "workload mix to optimize for")
	maxPlans := flag.Int("max-plans", planner.DefaultMaxPlansPerQuery, "plan space bound per query")
	workers := flag.Int("workers", 0, "advisor worker goroutines; 0 means all CPUs (the recommendation is identical for every value)")
	phases := flag.Bool("phases", false, "advise a per-phase schema series with migration charges (requires phase blocks in the workload)")
	driftReport := flag.Bool("drift-report", false, "print each declared mix's divergence from the active mix and the schema migration it would require")
	jsonOut := flag.Bool("json", false, "print the recommendation as canonical JSON (the nosed wire format; byte-identical to the daemon's result for the same request)")
	verbose := flag.Bool("v", false, "print update maintenance plans and timings")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot of the advisor run to this file and print a summary")
	solverStats := flag.Bool("solver-stats", false, "print LP solver statistics after the run: solves, warm-start hit rate (phase 2's root, started from phase 1's basis, included), pivots, refactorizations, columns fixed by their root reduced cost, per phase whether the solve was proven optimal or stopped at the node limit (with its relative gap), pruning and cuts")
	tracePath := flag.String("trace", "", "write a Chrome trace (chrome://tracing, Perfetto) of the advisor stages to this file")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "usage: nose -in workload.nose [-space bytes] [-mix name]")
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	req := api.Request{DSL: string(src), Mix: *mix, Workers: *workers, SpaceBytes: *space, MaxPlans: *maxPlans}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "nose:", err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metricsPath != "" || *solverStats {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	defer func() {
		if err := obs.WriteFiles(os.Stdout, *metricsPath, reg, *tracePath, tracer, *solverStats); err != nil {
			fatal(err)
		}
	}()

	if *jsonOut {
		kind := api.KindAdvise
		switch {
		case *phases:
			kind = api.KindSeries
		case *driftReport:
			kind = api.KindDriftReport
		}
		data, err := req.Run(context.Background(), kind, reg, tracer)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}

	w, err := req.Workload()
	if err != nil {
		fatal(err)
	}
	opts := req.Options(context.Background(), reg, tracer)

	if *phases {
		series, err := search.AdviseSeries(w, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Schema series (%d phases):\n\n", len(series.Phases))
		fmt.Print(series.Format())
		if *verbose {
			printRunStats(series.Timings, series.Stats)
		}
		return
	}

	rec, err := search.Advise(w, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Recommended schema (%d column families, %.1f MB estimated):\n\n",
		rec.Schema.Len(), rec.Schema.TotalSizeBytes()/1e6)
	fmt.Print(rec.Schema)
	fmt.Printf("\nEstimated weighted workload cost: %.4f\n\n", rec.Cost)

	fmt.Println("Query implementation plans:")
	for _, qr := range rec.Queries {
		fmt.Printf("\n%s (weight %.3f)\n", workload.Label(qr.Statement.Statement), w.Weight(qr.Statement))
		fmt.Print(qr.Plan)
	}

	if *driftReport {
		report, err := api.Drift(w, rec, opts)
		if err != nil {
			fatal(err)
		}
		printDriftReport(report)
	}

	if *verbose {
		fmt.Println("\nUpdate maintenance:")
		for _, ur := range rec.Updates {
			fmt.Printf("  %s\n", ur.Plan)
			for _, sp := range ur.SupportPlans {
				fmt.Printf("    support %s", sp)
			}
		}
		printRunStats(rec.Timings, rec.Stats)
	}
}

// printDriftReport renders the drift-report document the daemon serves
// as the CLI's text block: one line per declared non-active mix.
func printDriftReport(r *api.DriftReport) {
	fmt.Printf("\nDrift report (active mix %q, detector threshold %.2f):\n", r.ActiveMix, r.Threshold)
	for _, m := range r.Mixes {
		verdict := "steady"
		if m.Drift {
			verdict = "DRIFT"
		}
		fmt.Printf("  %-16s divergence %.3f  %-6s  migration builds %d, drops %d of %d column families\n",
			m.Mix, m.Divergence, verdict, m.Builds, m.Drops, len(r.Schema.ColumnFamilies))
	}
}

// printRunStats is the -v footer: stage timings and problem size.
func printRunStats(t search.Timings, st search.Stats) {
	fmt.Printf("\nTimings: enumeration %v, cost calculation %v, BIP construction %v, BIP solving %v, total %v\n",
		round(t.Enumeration), round(t.CostCalculation), round(t.BIPConstruction),
		round(t.BIPSolving), round(t.Total))
	fmt.Printf("Problem: %d candidates, %d plan variables, %d constraints, %d nodes\n",
		st.Candidates, st.PlanVariables, st.Constraints, st.Nodes)
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nose:", err)
	os.Exit(1)
}
