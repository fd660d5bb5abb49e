package search

import (
	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/planner"
	"nose/internal/workload"
)

// BuildPlans runs the plan-space generation stage alone — everything
// newBuilder does: planning every query, every update's maintenance,
// and every support-query group. It exists so benchmarks can measure
// this stage separately from enumeration and solving.
func BuildPlans(w *workload.Workload, enumRes *enumerator.Result, opt Options) error {
	opt = opt.withDefaults()
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)
	_, err := newBuilder(w, pl, enumRes, opt)
	return err
}

// Prepared is a formulated advisor problem whose solve stage can be run
// repeatedly — benchmarks use it to time the branch and bound phases
// in isolation from enumeration and plan-space generation. Advise runs
// on the same value.
type Prepared struct {
	b         *builder
	prog      *bip.Program
	refs      *colRefs
	incumbent []float64
}

// Prepare plans the workload and formulates the phase-1 program: with
// Prepared.Solve, the benchmark hook that times the solver alone (root
// bench_test.go).
func Prepare(w *workload.Workload, enumRes *enumerator.Result, opt Options) (*Prepared, error) {
	opt = opt.withDefaults()
	pl := planner.New(enumRes.Pool, opt.CostModel, opt.Planner)
	b, err := newBuilder(w, pl, enumRes, opt)
	if err != nil {
		return nil, err
	}
	return b.prepare(&Recommendation{}), nil
}

// Solve runs both solver phases exactly as Advise does (the phase-2
// program is formulated here, so the split of work between construction
// and solving is Advise's too) and discards the assignment.
func (p *Prepared) Solve() error {
	_, _, err := p.solve(&Recommendation{})
	return err
}
