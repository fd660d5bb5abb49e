package workload

import (
	"fmt"
	"math"
)

// Phase is one interval of a time-dependent workload: a named statement
// mix that holds for a share of the timeline. A workload with phases
// describes traffic that drifts — statement frequencies in one phase
// differ from the next — and is the input to the multi-interval advisor
// (search.AdviseSeries), which may recommend a different schema per
// phase and charges migration cost for the column families built at
// each boundary.
//
// A phase resolves each statement's weight in three steps: an explicit
// per-label override wins, then the named mix's weight, then the
// statement's default weight. A workload without phases is the static
// single-interval case the original paper studies.
type Phase struct {
	// Name labels the phase in reports and the printed schema series.
	Name string
	// Duration is the phase's relative share of the timeline; zero or
	// negative means 1. Only ratios matter: phase costs are weighted by
	// Duration / (sum of all Durations).
	Duration float64
	// Mix optionally names a statement mix (WeightedStatement.MixWeights)
	// whose weights apply during this phase.
	Mix string
	// Overrides optionally pins specific statements' weights for this
	// phase, keyed by statement label. Overrides win over Mix.
	Overrides map[string]float64
}

// EffectiveDuration is Duration with the zero-value default applied.
func (p *Phase) EffectiveDuration() float64 {
	if p.Duration <= 0 {
		return 1
	}
	return p.Duration
}

// AddPhase appends a phase to the workload's timeline and returns it.
func (w *Workload) AddPhase(p *Phase) *Phase {
	w.Phases = append(w.Phases, p)
	return p
}

// TotalDuration sums the phases' effective durations.
func (w *Workload) TotalDuration() float64 {
	total := 0.0
	for _, p := range w.Phases {
		total += p.EffectiveDuration()
	}
	return total
}

// PhaseWeight resolves a statement's weight during a phase: label
// override first, then the phase's mix, then the default weight.
func (w *Workload) PhaseWeight(ws *WeightedStatement, p *Phase) float64 {
	if p == nil {
		return w.Weight(ws)
	}
	if p.Overrides != nil {
		if v, ok := p.Overrides[labelOf(ws.Statement)]; ok {
			return v
		}
	}
	return ws.WeightIn(p.Mix)
}

// ForPhase derives the static workload a single phase describes: the
// same graph and statement set with each statement's default weight
// replaced by its phase weight (mixes and phases stripped). The
// underlying Statement values are shared, so candidate enumeration and
// plan identity agree across the phases of one workload.
func (w *Workload) ForPhase(p *Phase) *Workload {
	pw := New(w.Graph)
	for _, ws := range w.Statements {
		pw.Statements = append(pw.Statements, &WeightedStatement{
			Statement: ws.Statement,
			Weight:    w.PhaseWeight(ws, p),
		})
	}
	return pw
}

// ValidatePhases checks the workload's phase sequence: overrides must
// reference existing statement labels, mixes must be mentioned by some
// statement, override weights must be finite and non-negative, and
// durations finite and positive (zero, unset, means 1).
func (w *Workload) ValidatePhases() error {
	mixes := map[string]bool{}
	for _, m := range w.Mixes() {
		mixes[m] = true
	}
	for i, p := range w.Phases {
		if p.Duration < 0 || math.IsNaN(p.Duration) || math.IsInf(p.Duration, 0) {
			return fmt.Errorf("workload: phase %q has duration %g; a duration must be finite and positive", p.Name, p.Duration)
		}
		if p.Mix != "" && !mixes[p.Mix] {
			return fmt.Errorf("workload: phase %q references unknown mix %q", p.Name, p.Mix)
		}
		for label, v := range p.Overrides {
			if w.StatementByLabel(label) == nil {
				return fmt.Errorf("workload: phase %q overrides unknown statement %q", p.Name, label)
			}
			if !validWeight(v) {
				return fmt.Errorf("workload: phase %q gives statement %q weight %g; a weight must be finite and non-negative", p.Name, label, v)
			}
		}
		for j := 0; j < i; j++ {
			if w.Phases[j].Name == p.Name && p.Name != "" {
				return fmt.Errorf("workload: duplicate phase name %q", p.Name)
			}
		}
	}
	return nil
}
