// Package migrate models the cost and mechanics of changing a running
// application's physical schema: which column families a new
// recommendation adds or removes relative to the installed one, what
// building each new family is estimated to cost (derived from the
// schema size statistics in internal/schema), and how to materialize
// the change against a record store under simulated-time accounting
// (Live, the one migration driver: see live.go).
//
// The estimated build cost feeds the multi-interval BIP in
// search.AdviseSeries, where it is the link between adjacent phases:
// re-advising is only worthwhile when the workload-cost savings of a
// new schema exceed the charge for building its families. The same
// parameters price the measured migration step in internal/harness, so
// the advisor's estimate and the executed SimMillis agree in shape.
package migrate

import (
	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/schema"
)

// CostParams prices building one new column family during a migration.
// All costs are in the same abstract milliseconds as internal/cost.
type CostParams struct {
	// PerFamilyMillis is the fixed charge for creating a family
	// (metadata propagation, stream setup).
	PerFamilyMillis float64
	// PerRecordMillis is charged per record materialized into the new
	// family — one put request per record.
	PerRecordMillis float64
	// PerCellMillis is charged per attribute cell of each record.
	PerCellMillis float64
}

// DefaultCostParams derives migration prices from the record store's
// write model: each materialized record is one put request writing the
// family's cells, plus a fixed per-family setup charge.
func DefaultCostParams() CostParams {
	p := cost.DefaultParams()
	return CostParams{
		PerFamilyMillis: 2 * p.RequestCost,
		PerRecordMillis: p.InsertRequestCost,
		PerCellMillis:   p.InsertCellCost,
	}
}

// Scale multiplies all prices by f, for experiments sweeping migration
// expense.
func (p CostParams) Scale(f float64) CostParams {
	return CostParams{
		PerFamilyMillis: p.PerFamilyMillis * f,
		PerRecordMillis: p.PerRecordMillis * f,
		PerCellMillis:   p.PerCellMillis * f,
	}
}

// BuildCost estimates the cost of materializing index x as a new column
// family: the estimated record count (schema size statistics) times the
// per-record and per-cell write prices, plus the fixed family charge.
func BuildCost(x *schema.Index, p CostParams) float64 {
	cells := float64(len(x.Partition) + len(x.Clustering) + len(x.Values))
	return p.PerFamilyMillis + x.Records()*(p.PerRecordMillis+p.PerCellMillis*cells)
}

// Diff compares two schemas structurally and returns the families the
// migration from prev to next must build and may drop, in each schema's
// insertion order. A nil prev means everything in next is new.
func Diff(prev, next *schema.Schema) (build, drop []*schema.Index) {
	for _, x := range next.Indexes() {
		if prev == nil || prev.Lookup(x) == nil {
			build = append(build, x)
		}
	}
	if prev != nil {
		for _, x := range prev.Indexes() {
			if next.Lookup(x) == nil {
				drop = append(drop, x)
			}
		}
	}
	return build, drop
}

// EstimatedCost sums the estimated build cost of the given families.
// Dropping a family is free: the store discards it without per-record
// work.
func EstimatedCost(build []*schema.Index, p CostParams) float64 {
	total := 0.0
	for _, x := range build {
		total += BuildCost(x, p)
	}
	return total
}

// Store is the record-store surface a migration needs; *backend.Store
// and *backend.ReplicatedStore both satisfy it. Def lets a resumed
// migration (ResumeLive) create only the families a crash left missing
// instead of blindly re-creating — and wiping — survivors.
type Store interface {
	backend.Installer
	Drop(name string)
	Def(name string) (backend.ColumnFamilyDef, error)
}

// Result reports one executed migration.
type Result struct {
	// Built and Dropped name the families changed, in order.
	Built, Dropped []string
	// Records is the number of records materialized into new families.
	Records int
	// SimMillis is the simulated time the builds consumed: the summed
	// service time of every put, plus the per-family setup charge.
	SimMillis float64
}
