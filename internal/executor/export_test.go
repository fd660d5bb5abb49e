package executor

import (
	"testing"

	"nose/internal/backend"
	"nose/internal/obs"
	"nose/internal/planner"
)

// Get returns the value of a column by qualified attribute name. No
// production caller reads one cell of a row; the reference comparison
// and the ordering and semantics tests do.
func (t Tuple) Get(name string) (backend.Value, bool) {
	if t.cols != nil {
		for i, n := range t.cols.names {
			if n == name {
				return t.vals[i], true
			}
		}
	}
	return nil, false
}

// RegisteredCounter and RegisteredGauge read an instrument by name from
// a registry the tests bound with SetObs. A name the registry never
// registered fails the test: Registry.Counter would create it, and a
// misspelt name would read as a silent zero.
func RegisteredCounter(t testing.TB, r *obs.Registry, name string) int64 {
	t.Helper()
	v, ok := r.Snapshot().Counters[name]
	if !ok {
		t.Fatalf("counter %q is not registered", name)
	}
	return v
}

func RegisteredGauge(t testing.TB, r *obs.Registry, name string) float64 {
	t.Helper()
	v, ok := r.Snapshot().Gauges[name]
	if !ok {
		t.Fatalf("gauge %q is not registered", name)
	}
	return v
}

// CompiledMoves compiles a query plan and names, per lookup step in
// plan order, the fetched columns it moves on every run (live) and
// those it moves only for the projection (projOnly), each list in
// partition, clustering, value order.
func CompiledMoves(plan *planner.Plan) (live, projOnly [][]string, err error) {
	prog, err := compileQuery(plan)
	if err != nil {
		return nil, nil, err
	}
	for i, op := range prog.plans[0] {
		o, ok := op.(*lookupOp)
		if !ok {
			continue
		}
		cols := sources(backend.DefFromIndex(plan.Steps[i].(*planner.LookupStep).Index))
		names := func(ms []move) []string {
			out := []string{}
			for _, m := range ms {
				out = append(out, cols[m.src][m.from])
			}
			return out
		}
		live, projOnly = append(live, names(o.moves[:o.live])), append(projOnly, names(o.moves[o.live:]))
	}
	return live, projOnly, nil
}

// QueryRows runs a query plan's steps as ExecuteQuery (project) or
// RunQuery (!project) runs them and returns the rows left before the
// projection, so a test can see which rows share a window. The scratch
// is not returned to the pool.
func (e *Executor) QueryRows(plan *planner.Plan, params Params, project bool) ([][]backend.Value, error) {
	prog, err := compileQuery(plan)
	if err != nil {
		return nil, err
	}
	sc := e.scratch()
	sc.projected = project
	if err := sc.enter(prog, params); err != nil {
		return nil, err
	}
	_, err = e.run(prog.plans[0], sc)
	return sc.rows, err
}
