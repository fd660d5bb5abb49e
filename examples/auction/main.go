// Auction: the paper's full evaluation scenario end to end. Builds the
// RUBiS-derived auction site model, recommends a schema for the bidding
// mix, loads a generated dataset into the simulated record store, and
// executes live transactions against the recommendation — comparing
// response times with the normalized baseline.
//
//	go run ./examples/auction
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"nose/internal/baselines"
	"nose/internal/cost"
	"nose/internal/harness"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/search"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the scenario, printing its progress and results to out.
func run(out io.Writer) error {
	cfg := rubis.Config{Users: 2_000, Seed: 1}

	fmt.Fprintln(out, "Generating RUBiS dataset...")
	ds, err := rubis.Generate(cfg)
	if err != nil {
		return err
	}
	w, txns, err := rubis.Workload(ds.Graph)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "Running the schema advisor (bidding mix)...")
	rec, err := search.Advise(w, search.Options{
		Planner: planner.Config{MaxPlansPerQuery: 24},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "NoSE recommends %d column families (%.1f MB) in %v\n\n",
		rec.Schema.Len(), rec.Schema.TotalSizeBytes()/1e6, rec.Timings.Total)

	// The normalized baseline is the advisor's own program over a fixed
	// pool: every family installed and maintained, each statement on its
	// cheapest plan, priced as NoSE's recommendation is.
	normPool, err := baselines.Normalized(w)
	if err != nil {
		return err
	}
	normRec, err := search.AdvisePinned(w, normPool, search.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Estimated workload cost: NoSE %.2f, normalized %.2f\n\n", rec.Cost, normRec.Cost)

	fmt.Fprintln(out, "Installing both schemas into the simulated record store...")
	noseSys, err := harness.NewSystem("NoSE", ds, rec, cost.DefaultParams())
	if err != nil {
		return err
	}
	normSys, err := harness.NewSystem("Normalized", ds, normRec, cost.DefaultParams())
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\n%-24s %14s %14s\n", "Transaction", "NoSE (ms)", "Normalized")
	const executions = 20
	for _, txn := range txns {
		var totals [2]float64
		for i, sys := range []*harness.System{noseSys, normSys} {
			ps := rubis.NewParamSource(cfg, 7)
			for n := 0; n < executions; n++ {
				ms, err := sys.ExecTransaction(txn.Statements, ps.Params(txn.Name))
				if err != nil {
					return fmt.Errorf("%s on %s: %w", txn.Name, sys.Name, err)
				}
				totals[i] += ms
			}
		}
		fmt.Fprintf(out, "%-24s %14.3f %14.3f\n",
			txn.Name, totals[0]/executions, totals[1]/executions)
	}
	return nil
}
