package api

import (
	"context"
	"fmt"
	"math"

	"nose/internal/drift"
	"nose/internal/migrate"
	"nose/internal/nosedsl"
	"nose/internal/obs"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/workload"
)

// Request is what an advisor run is asked: the workload source and the
// knobs both front doors expose (nose's flags, nosed's query
// parameters). Both doors build one and go through the methods below,
// so their results are equal by construction.
type Request struct {
	// DSL is the workload source (.nose format).
	DSL string
	// Mix selects the workload mix to optimize for; empty keeps the
	// DSL's active mix.
	Mix string
	// Workers bounds advisor goroutines; 0 means all CPUs. Results are
	// identical for every value.
	Workers int
	// SpaceBytes is the advisor storage budget; 0 means unlimited.
	SpaceBytes float64
	// MaxPlans bounds the plan space per query; 0 means the planner
	// default.
	MaxPlans int
}

// Advisor job kinds Run accepts.
const (
	KindAdvise      = "advise"
	KindSeries      = "advise-series"
	KindDriftReport = "drift-report"
)

// Validate rejects knob values no run can honour. A negative, NaN or
// infinite budget is an error rather than a synonym for "no budget".
func (r Request) Validate() error {
	if r.SpaceBytes < 0 || math.IsNaN(r.SpaceBytes) || math.IsInf(r.SpaceBytes, 0) {
		return fmt.Errorf("space budget %g must be a finite, non-negative number of bytes", r.SpaceBytes)
	}
	if r.MaxPlans < 0 {
		return fmt.Errorf("max-plans %d must not be negative", r.MaxPlans)
	}
	return nil
}

// Workload parses the DSL and applies the mix override.
func (r Request) Workload() (*workload.Workload, error) {
	_, w, err := nosedsl.Parse(r.DSL)
	if err != nil {
		return nil, err
	}
	if r.Mix != "" {
		w.ActiveMix = r.Mix
	}
	return w, nil
}

// Options turns the knobs into advisor options; everything they do not
// name keeps the advisor's defaults. ctx cancels the run; reg and
// tracer, which may be nil, observe it.
func (r Request) Options(ctx context.Context, reg *obs.Registry, tracer *obs.Tracer) search.Options {
	maxPlans := r.MaxPlans
	if maxPlans <= 0 {
		maxPlans = planner.DefaultMaxPlansPerQuery
	}
	return search.Options{
		Workers:          r.Workers,
		SpaceBudgetBytes: r.SpaceBytes,
		Planner:          planner.Config{MaxPlansPerQuery: maxPlans},
		Ctx:              ctx,
		Obs:              reg,
		Trace:            tracer,
	}
}

// Run executes one advisor job of the given kind on a validated request
// and returns its canonical result document: the bytes nosed stores and
// `nose -json` prints.
func (r Request) Run(ctx context.Context, kind string, reg *obs.Registry, tracer *obs.Tracer) ([]byte, error) {
	w, err := r.Workload()
	if err != nil {
		return nil, err
	}
	opts := r.Options(ctx, reg, tracer)
	switch kind {
	case KindAdvise, KindDriftReport:
		rec, err := search.Advise(w, opts)
		if err != nil {
			return nil, err
		}
		if kind == KindAdvise {
			return Encode(Advise(w, rec))
		}
		report, err := Drift(w, rec, opts)
		if err != nil {
			return nil, err
		}
		return Encode(report)
	case KindSeries:
		sr, err := search.AdviseSeries(w, opts)
		if err != nil {
			return nil, err
		}
		return Encode(Series(w, sr))
	}
	return nil, fmt.Errorf("unknown advisor job kind %q", kind)
}

// Drift advises each declared mix other than the active one and reports
// it against rec, the active mix's recommendation under the same
// options: the total-variation divergence between the two statement
// mixes, whether the default online detector would call it drift, and
// the migration the schema change would require.
func Drift(w *workload.Workload, rec *search.Recommendation, opts search.Options) (*DriftReport, error) {
	mixes := w.Mixes()
	if len(mixes) < 2 {
		return nil, fmt.Errorf("drift-report needs at least two declared mixes; workload has %d", len(mixes))
	}
	report := &DriftReport{
		ActiveMix: w.ActiveMix,
		Threshold: drift.DefaultThreshold,
		Schema:    *Advise(w, rec),
	}
	for _, mix := range mixes {
		if mix == w.ActiveMix {
			continue
		}
		div := drift.TotalVariation(mixWeights(w, mix), mixWeights(w, w.ActiveMix))
		other := *w
		other.ActiveMix = mix
		otherRec, err := search.Advise(&other, opts)
		if err != nil {
			return nil, fmt.Errorf("advise mix %q: %w", mix, err)
		}
		build, drop := migrate.Diff(rec.Schema, otherRec.Schema)
		report.Mixes = append(report.Mixes, MixDrift{
			Mix:        mix,
			Divergence: div,
			Drift:      div >= report.Threshold,
			Builds:     len(build),
			Drops:      len(drop),
		})
	}
	return report, nil
}

// mixWeights returns a mix's normalized statement-label mix.
func mixWeights(w *workload.Workload, mix string) map[string]float64 {
	out := map[string]float64{}
	for _, ws := range w.Statements {
		out[workload.Label(ws.Statement)] += ws.WeightIn(mix)
	}
	return drift.Normalize(out)
}
