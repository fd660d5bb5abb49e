// Package nose is the NoSQL Schema Evaluator: a workload-driven schema
// advisor for extensible record stores such as Cassandra and HBase,
// reproducing Mior et al., "NoSE: Schema Design for NoSQL
// Applications" (ICDE 2016).
//
// Given a conceptual data model (an entity graph) and a weighted
// workload of queries and updates expressed over that model, NoSE
// recommends a set of column families — each a materialized view of
// the form [partition key][clustering key][values] — together with an
// implementation plan for every statement, minimizing the estimated
// weighted cost of the workload under a pluggable cost model.
//
// # Quick start
//
//	g := nose.NewGraph()
//	hotel := g.AddEntity("Hotel", "HotelID", 100)
//	hotel.AddAttributeCard("HotelCity", nose.StringType, 50)
//	room := g.AddEntity("Room", "RoomID", 10_000)
//	room.AddAttributeCard("RoomRate", nose.FloatType, 200)
//	g.MustAddRelationship("Hotel", "Rooms", "Room", "Hotel", nose.OneToMany)
//
//	w := nose.NewWorkload(g)
//	w.Add(nose.MustParse(g, `SELECT Room.RoomID FROM Room
//	    WHERE Room.Hotel.HotelCity = ?city AND Room.RoomRate > ?rate`), 1.0)
//
//	rec, err := nose.Advise(w, nose.Options{})
//	// rec.Schema lists the recommended column families;
//	// rec.Queries[i].Plan explains how to answer each query.
//
// The packages under internal/ implement the pipeline: candidate
// enumeration, query planning, the cost model, a simplex LP solver and
// 0-1 branch and bound (replacing the paper's Gurobi dependency), a
// simulated extensible record store, and an execution engine for the
// recommended plans.
package nose

import (
	"nose/internal/cost"
	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// Conceptual model types.
type (
	// Graph is an entity graph: the application's conceptual data
	// model.
	Graph = model.Graph
	// Entity is one entity set in the graph.
	Entity = model.Entity
	// Attribute is one typed attribute of an entity.
	Attribute = model.Attribute
	// Edge is one direction of a relationship between entities.
	Edge = model.Edge
	// Path is a traversal through the entity graph.
	Path = model.Path
)

// Attribute types.
const (
	// IDType is the surrogate key type.
	IDType = model.IDType
	// IntegerType is a 64-bit integer attribute.
	IntegerType = model.IntegerType
	// FloatType is a 64-bit floating point attribute.
	FloatType = model.FloatType
	// StringType is a variable-length string attribute.
	StringType = model.StringType
	// DateType is a timestamp attribute.
	DateType = model.DateType
	// BooleanType is a true/false attribute.
	BooleanType = model.BooleanType
)

// Relationship kinds.
const (
	// OneToOne relates each source entity to at most one target and
	// vice versa.
	OneToOne = model.OneToOne
	// OneToMany relates each source to many targets, each target to
	// one source.
	OneToMany = model.OneToMany
	// ManyToMany relates both directions with degree many.
	ManyToMany = model.ManyToMany
)

// NewGraph returns an empty entity graph.
func NewGraph() *Graph { return model.NewGraph() }

// Workload types.
type (
	// Workload is a weighted set of statements over a conceptual
	// model.
	Workload = workload.Workload
	// Statement is any parsed workload statement.
	Statement = workload.Statement
	// Query is a parameterized read statement.
	Query = workload.Query
	// WeightedStatement pairs a statement with its frequency.
	WeightedStatement = workload.WeightedStatement
)

// NewWorkload returns an empty workload over the given model.
func NewWorkload(g *Graph) *Workload { return workload.New(g) }

// Parse parses one statement of the workload language (see
// internal/workload for the grammar, which follows the paper's
// examples: SELECT/INSERT/UPDATE/DELETE/CONNECT/DISCONNECT over entity
// graph paths).
func Parse(g *Graph, src string) (Statement, error) { return workload.Parse(g, src) }

// MustParse is Parse that panics on error; convenient for statically
// known statements.
func MustParse(g *Graph, src string) Statement { return workload.MustParse(g, src) }

// ParseQuery parses a statement that must be a query.
func ParseQuery(g *Graph, src string) (*Query, error) { return workload.ParseQuery(g, src) }

// Schema and advisor types.
type (
	// Schema is a set of recommended column families.
	Schema = schema.Schema
	// ColumnFamily is one column family definition in triple notation
	// [partition key][clustering key][values].
	ColumnFamily = schema.Index
	// Options configures an advisor run.
	Options = search.Options
	// Recommendation is the advisor's output.
	Recommendation = search.Recommendation
	// CostModel prices plan operations; implement it to target a
	// different record store.
	CostModel = cost.Model
	// CostParams holds the coefficients of the built-in linear cost
	// model.
	CostParams = cost.Params
)

// DefaultCostModel returns the built-in Cassandra-style linear cost
// model with default coefficients.
func DefaultCostModel() CostModel { return cost.Default() }

// Advise recommends a schema and per-statement implementation plans
// for the workload (paper Fig. 2's end-to-end pipeline).
func Advise(w *Workload, opt Options) (*Recommendation, error) {
	return search.Advise(w, opt)
}
