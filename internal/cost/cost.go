// Package cost implements the advisor's cost model (paper §IV-B and the
// companion tech report). The model estimates the cost to the
// application of each primitive plan operation: get requests against
// column families, client-side filtering and sorting, and the put and
// delete requests update plans issue.
//
// The paper fits a linear model to measured Cassandra latencies; here
// the same linear shape is parameterized by Params, and the default
// parameters double as the service-time model of the simulated record
// store in internal/backend, so advisor estimates and measured
// execution times agree in shape. All costs are in abstract
// milliseconds.
package cost

import "math"

// Params holds the coefficients of the linear cost model.
type Params struct {
	// RequestCost is charged once per get request (network round trip
	// plus coordinator overhead).
	RequestCost float64
	// PartitionCost is charged per partition a get touches (each
	// partition is a separate on-disk read path).
	PartitionCost float64
	// RowCost is charged per clustering row materialized by a get.
	RowCost float64
	// InsertRequestCost is charged once per put request.
	InsertRequestCost float64
	// InsertCellCost is charged per attribute cell written by a put.
	InsertCellCost float64
	// DeleteRequestCost is charged once per delete request.
	DeleteRequestCost float64
	// FilterRowCost is charged per row examined by a client-side
	// filter step.
	FilterRowCost float64
	// SortRowCost scales the n·log₂(n) client-side sort term.
	SortRowCost float64
}

// DefaultParams returns coefficients calibrated against the simulated
// record store in internal/backend: requests dominate, rows are cheap,
// and client-side work is an order of magnitude cheaper than I/O.
func DefaultParams() Params {
	return Params{
		RequestCost:       0.50,
		PartitionCost:     0.10,
		RowCost:           0.005,
		InsertRequestCost: 0.25,
		InsertCellCost:    0.002,
		DeleteRequestCost: 0.25,
		FilterRowCost:     0.0005,
		SortRowCost:       0.0005,
	}
}

// Model estimates the cost of primitive plan operations. Implementations
// other than the built-in linear model can be substituted to target
// different record stores (paper §IX).
type Model interface {
	// Lookup estimates the cost of `requests` get operations that
	// together touch `partitions` partitions and materialize `rows`
	// clustering rows.
	Lookup(requests, partitions, rows float64) float64
	// Insert estimates the cost of `requests` put operations writing
	// `cells` attribute cells in total.
	Insert(requests, cells float64) float64
	// Delete estimates the cost of `requests` delete operations.
	Delete(requests float64) float64
	// Filter estimates the cost of client-side filtering of `rows`
	// rows.
	Filter(rows float64) float64
	// Sort estimates the cost of client-side sorting of `rows` rows.
	Sort(rows float64) float64
}

// Linear is the default cost model: every operation is linear in its
// request, partition, row and cell counts.
type Linear struct {
	// P holds the model coefficients.
	P Params
}

// NewLinear returns a linear model with the given parameters.
func NewLinear(p Params) *Linear { return &Linear{P: p} }

// Default returns a linear model with DefaultParams.
func Default() *Linear { return NewLinear(DefaultParams()) }

// Lookup implements Model.
func (m *Linear) Lookup(requests, partitions, rows float64) float64 {
	if requests <= 0 {
		return 0
	}
	if partitions < requests {
		partitions = requests
	}
	return requests*m.P.RequestCost + partitions*m.P.PartitionCost + rows*m.P.RowCost
}

// Insert implements Model.
func (m *Linear) Insert(requests, cells float64) float64 {
	if requests <= 0 {
		return 0
	}
	return requests*m.P.InsertRequestCost + cells*m.P.InsertCellCost
}

// Delete implements Model.
func (m *Linear) Delete(requests float64) float64 {
	if requests <= 0 {
		return 0
	}
	return requests * m.P.DeleteRequestCost
}

// Filter implements Model.
func (m *Linear) Filter(rows float64) float64 {
	if rows <= 0 {
		return 0
	}
	return rows * m.P.FilterRowCost
}

// Sort implements Model.
func (m *Linear) Sort(rows float64) float64 {
	if rows <= 1 {
		return 0
	}
	return rows * math.Log2(rows) * m.P.SortRowCost
}
