package executor_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/faults"
	"nose/internal/rubis"
	"nose/internal/workload"
)

// TestRunQueryMatchesExecuteQuery: RunQuery is ExecuteQuery without the
// rows. On the NoSE, normalized and expert RUBiS schemas, every plan of
// every query's plan list (planLists) runs under six seeded bindings and then
// with the query's first parameter unbound, once through each method, on
// two copies of the data behind the same seeded transient faults, which
// the executor retries. SimMillis must agree bit for bit, as must
// Retries, the error text and the log of store calls, retried attempts
// included; RunQuery returns no rows.
func TestRunQueryMatchesExecuteQuery(t *testing.T) {
	cfg := rubis.Config{Users: 300, Seed: 7}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, schema := range rubisRecommendations {
		t.Run(schema.name, func(t *testing.T) {
			rec, err := schema.recommend(w)
			if err != nil {
				t.Fatal(err)
			}
			side := func() (*executor.Executor, *recorder) {
				store := backend.NewStore(cost.DefaultParams())
				for _, x := range rec.Schema.Indexes() {
					must(t, ds.Install(store, x))
				}
				inj := faults.New(store, 3)
				inj.SetDefaultProfile(faults.Profile{TransientRate: 0.05, TimeoutRate: 0.02})
				log := &recorder{KVBackend: inj}
				return executor.New(log, cost.DefaultParams()), log
			}
			full, fullLog := side()
			bare, bareLog := side()
			ps := rubis.NewParamSource(cfg, 99)
			var bindings []executor.Params
			for i := 0; i < 6; i++ {
				bindings = append(bindings, ps.Params(""))
			}
			runs, retried, failed := 0, 0, 0
			lists := planLists(t, rec)
			for qi, qr := range rec.Queries {
				q := qr.Plan.Query
				unbound := without{bindings[0], q.Where[0].Param}
				for i, params := range append(bindings, unbound) {
					for rank, plan := range lists[qi] {
						at := fmt.Sprintf("%s binding %d rank %d", workload.Label(q), i, rank)
						want, werr := full.ExecuteQuery(plan, params)
						got, gerr := bare.RunQuery(plan, params)
						if fmt.Sprint(gerr) != fmt.Sprint(werr) {
							t.Fatalf("%s: RunQuery error %v, ExecuteQuery %v", at, gerr, werr)
						}
						if math.Float64bits(got.SimMillis) != math.Float64bits(want.SimMillis) || got.Retries != want.Retries {
							t.Fatalf("%s: RunQuery %v ms and %d retries, ExecuteQuery %v ms and %d",
								at, got.SimMillis, got.Retries, want.SimMillis, want.Retries)
						}
						if got.Rows != nil {
							t.Fatalf("%s: RunQuery returned %d rows", at, len(got.Rows))
						}
						if !slices.Equal(bareLog.log, fullLog.log) {
							t.Fatalf("%s: the store calls differ", at)
						}
						runs++
						if want.Retries > 0 {
							retried++
						}
						if werr != nil {
							failed++
						}
					}
				}
			}
			if retried == 0 || failed == 0 {
				t.Errorf("%d plan executions compared, but %d retried and %d failed: both paths must be covered", runs, retried, failed)
			}
			t.Logf("%d plan executions compared, %d retried, %d failed, %d store calls", runs, retried, failed, len(fullLog.log))
		})
	}
}

// without leaves one name of its Params unbound.
type without struct {
	executor.Params
	name string
}

func (w without) Param(name string) (backend.Value, bool) {
	if name == w.name {
		return nil, false
	}
	return w.Params.Param(name)
}
