// Package api defines the canonical JSON wire format shared by the
// nosed service and the nose CLI's -json mode, and the one front door
// both go through to produce it (Request: validation, DSL → workload,
// knobs → search.Options, Run). Every encoder here is deterministic:
// structs marshal in declaration order, maps marshal with sorted keys
// (encoding/json's contract), slices preserve the advisor's
// workload-order output, and nondeterministic fields (wall clock
// timings) are excluded. Because the advisor itself is worker-count
// invariant and both doors call Request.Run, the same workload DSL and
// knobs produce byte-identical encodings whether the run was submitted
// over HTTP or executed by the CLI; internal/service's tests diff
// `nose -json` output against the daemon's stored result as a tripwire.
package api

import (
	"encoding/json"
	"sort"

	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// ColumnFamily is one recommended column family in the paper's triple
// notation.
type ColumnFamily struct {
	// Name is the generated identifier, e.g. "cf12".
	Name string `json:"name"`
	// Key is the [partition][clustering][values] triple.
	Key string `json:"key"`
	// Path is the entity-graph path the family is anchored to.
	Path string `json:"path"`
	// SizeBytes is the estimated storage footprint.
	SizeBytes float64 `json:"size_bytes"`
}

// QueryPlan is one query's chosen implementation plan.
type QueryPlan struct {
	// Label identifies the workload statement.
	Label string `json:"label"`
	// Weight is the statement's weight in the active mix.
	Weight float64 `json:"weight"`
	// Cost is the plan's estimated per-execution cost.
	Cost float64 `json:"cost"`
	// Steps are the plan's operations in execution order.
	Steps []string `json:"steps"`
	// ColumnFamilies names the families the plan reads, in use order.
	ColumnFamilies []string `json:"column_families"`
}

// UpdatePlan is one (write statement, maintained family) pair.
type UpdatePlan struct {
	// Label identifies the workload statement.
	Label string `json:"label"`
	// ColumnFamily is the maintained family.
	ColumnFamily string `json:"column_family"`
	// DeleteRequests and InsertRequests estimate the operations issued
	// per execution; WriteCost is their estimated cost.
	DeleteRequests float64 `json:"delete_requests"`
	InsertRequests float64 `json:"insert_requests"`
	WriteCost      float64 `json:"write_cost"`
	// SupportPlans renders the chosen support query plans.
	SupportPlans []string `json:"support_plans,omitempty"`
}

// Stats reports the optimization problem's size. All four figures are
// deterministic for a given request: the batched branch and bound
// explores an identical tree at every worker count.
type Stats struct {
	Candidates    int `json:"candidates"`
	PlanVariables int `json:"plan_variables"`
	Constraints   int `json:"constraints"`
	Nodes         int `json:"nodes"`
}

// AdviseResult is the wire form of a search.Recommendation.
type AdviseResult struct {
	// ColumnFamilies is the recommended schema, sorted by family name.
	ColumnFamilies []ColumnFamily `json:"column_families"`
	// TotalSizeBytes is the schema's estimated footprint.
	TotalSizeBytes float64 `json:"total_size_bytes"`
	// Cost is the optimal weighted workload cost.
	Cost float64 `json:"cost"`
	// Queries holds one plan per workload query, in workload order.
	Queries []QueryPlan `json:"queries"`
	// Updates holds the write maintenance plans.
	Updates []UpdatePlan `json:"updates,omitempty"`
	// Stats reports problem sizes.
	Stats Stats `json:"stats"`
}

// PhaseResult is one interval of a schema series.
type PhaseResult struct {
	// Phase names the workload interval ("" when the workload declared
	// no phases and the series degenerated to a single schema).
	Phase string `json:"phase"`
	// Share is the phase's normalized share of the timeline.
	Share float64 `json:"share"`
	// Advise is the phase's full recommendation.
	Advise AdviseResult `json:"advise"`
	// Build and Drop name the column families the migration entering
	// this phase builds and drops.
	Build []string `json:"build"`
	Drop  []string `json:"drop"`
	// MigrationCost is the estimated charge for Build.
	MigrationCost float64 `json:"migration_cost"`
}

// SeriesResult is the wire form of a search.SeriesRecommendation.
type SeriesResult struct {
	Phases        []PhaseResult `json:"phases"`
	WorkloadCost  float64       `json:"workload_cost"`
	MigrationCost float64       `json:"migration_cost"`
	TotalCost     float64       `json:"total_cost"`
	Stats         Stats         `json:"stats"`
}

// MixDrift is one declared mix's drift verdict against the active mix.
type MixDrift struct {
	// Mix names the declared mix.
	Mix string `json:"mix"`
	// Divergence is the total-variation distance of the statement mixes.
	Divergence float64 `json:"divergence"`
	// Drift reports whether the default online detector would call it.
	Drift bool `json:"drift"`
	// Builds and Drops count the column families a migration from the
	// active mix's schema to this mix's schema would build and drop.
	Builds int `json:"builds"`
	Drops  int `json:"drops"`
}

// DriftReport is the wire form of the drift-report job: each declared
// mix's divergence from the active mix and the migration its schema
// change would require.
type DriftReport struct {
	// ActiveMix is the mix the base schema was advised for.
	ActiveMix string `json:"active_mix"`
	// Threshold is the detector's total-variation trigger threshold.
	Threshold float64 `json:"threshold"`
	// Schema is the active mix's recommendation.
	Schema AdviseResult `json:"schema"`
	// Mixes holds one verdict per declared non-active mix, in the
	// workload's declaration order.
	Mixes []MixDrift `json:"mixes"`
}

// Encode marshals any wire value to the canonical byte form: two-space
// indented JSON with a trailing newline. All byte-identity guarantees
// are stated against this encoding.
func Encode(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Advise converts a recommendation to its wire form. The workload
// supplies statement weights; both arguments must come from the same
// advisor run.
func Advise(w *workload.Workload, rec *search.Recommendation) *AdviseResult {
	out := &AdviseResult{
		TotalSizeBytes: rec.Schema.TotalSizeBytes(),
		Cost:           rec.Cost,
		Stats: Stats{
			Candidates:    rec.Stats.Candidates,
			PlanVariables: rec.Stats.PlanVariables,
			Constraints:   rec.Stats.Constraints,
			Nodes:         rec.Stats.Nodes,
		},
	}
	for _, x := range sortedByName(rec.Schema.Indexes()) {
		out.ColumnFamilies = append(out.ColumnFamilies, ColumnFamily{
			Name: x.Name, Key: x.String(), Path: x.Path.String(), SizeBytes: x.SizeBytes(),
		})
	}
	for _, qr := range rec.Queries {
		qp := QueryPlan{
			Label:  workload.Label(qr.Statement.Statement),
			Weight: w.Weight(qr.Statement),
			Cost:   qr.Plan.Cost,
		}
		for _, s := range qr.Plan.Steps {
			qp.Steps = append(qp.Steps, s.Describe())
		}
		for _, x := range qr.Plan.Indexes() {
			qp.ColumnFamilies = append(qp.ColumnFamilies, x.Name)
		}
		out.Queries = append(out.Queries, qp)
	}
	for _, ur := range rec.Updates {
		up := UpdatePlan{
			Label:          workload.Label(ur.Statement.Statement),
			ColumnFamily:   ur.Plan.Index.Name,
			DeleteRequests: ur.Plan.DeleteRequests,
			InsertRequests: ur.Plan.InsertRequests,
			WriteCost:      ur.Plan.WriteCost,
		}
		for _, sp := range ur.SupportPlans {
			up.SupportPlans = append(up.SupportPlans, sp.String())
		}
		out.Updates = append(out.Updates, up)
	}
	return out
}

// Series converts a series recommendation to its wire form.
func Series(w *workload.Workload, sr *search.SeriesRecommendation) *SeriesResult {
	out := &SeriesResult{
		WorkloadCost:  sr.WorkloadCost,
		MigrationCost: sr.MigrationCost,
		TotalCost:     sr.TotalCost,
		Stats: Stats{
			Candidates:    sr.Stats.Candidates,
			PlanVariables: sr.Stats.PlanVariables,
			Constraints:   sr.Stats.Constraints,
			Nodes:         sr.Stats.Nodes,
		},
	}
	for _, pr := range sr.Phases {
		view := w
		if pr.Phase != nil {
			view = w.ForPhase(pr.Phase)
		}
		wp := PhaseResult{
			Advise:        *Advise(view, pr.Rec),
			Build:         indexNames(pr.Build),
			Drop:          indexNames(pr.Drop),
			MigrationCost: pr.MigrationCost,
			Share:         pr.Share,
		}
		if pr.Phase != nil {
			wp.Phase = pr.Phase.Name
		}
		out.Phases = append(out.Phases, wp)
	}
	return out
}

// sortedByName orders column families by generated name, matching the
// schema's own String rendering.
func sortedByName(xs []*schema.Index) []*schema.Index {
	out := append([]*schema.Index(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// indexNames renders a family list as sorted names. JSON requires [] —
// not null — for an empty list, so the slice is always allocated.
func indexNames(xs []*schema.Index) []string {
	out := make([]string, 0, len(xs))
	for _, x := range sortedByName(xs) {
		out = append(out, x.Name)
	}
	return out
}
