package planner

import (
	"math"
	"strings"
	"sync"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Config tunes plan-space generation.
type Config struct {
	// RangeSelectivity is the assumed fraction of rows matching an
	// inequality predicate.
	RangeSelectivity float64
	// MaxPlansPerQuery bounds each query's plan space; the cheapest
	// plans are kept. Zero means DefaultMaxPlansPerQuery.
	MaxPlansPerQuery int
	// SkipReverse disables reversed-orientation planning (ablation).
	SkipReverse bool
	// SkipRelaxation disables predicate relaxation during planning
	// (ablation): only fully-pushed lookups are considered.
	SkipRelaxation bool
}

// DefaultMaxPlansPerQuery bounds plan spaces when Config leaves
// MaxPlansPerQuery zero.
const DefaultMaxPlansPerQuery = 64

// DefaultConfig returns the default planner configuration.
func DefaultConfig() Config {
	return Config{
		RangeSelectivity: enumerator.RangeSelectivity,
		MaxPlansPerQuery: DefaultMaxPlansPerQuery,
	}
}

// Planner generates plan spaces for statements over a candidate pool.
// It is safe for concurrent use: plan-space generation for different
// statements may run on separate goroutines sharing one Planner.
type Planner struct {
	pool  *enumerator.Pool
	model cost.Model
	cfg   Config

	// mu guards the lazily-rebuilt partition map and the scratch list
	// below; everything else on the Planner is read-only after New.
	mu sync.Mutex
	// byPartition indexes the pool by canonical partition key so
	// lookup-variant generation touches only structurally compatible
	// candidates. It is rebuilt lazily when the pool grows.
	byPartition map[string][]*schema.Index
	indexed     int

	// idle holds the working memory of finished PlanQuery calls for the
	// next ones: as many as ever ran at once, kept for the planner's
	// life. See the scratch type.
	idle []*scratch
}

// New returns a planner over the given candidate pool and cost model.
func New(pool *enumerator.Pool, m cost.Model, cfg Config) *Planner {
	if cfg.RangeSelectivity <= 0 || cfg.RangeSelectivity > 1 {
		cfg.RangeSelectivity = enumerator.RangeSelectivity
	}
	if cfg.MaxPlansPerQuery <= 0 {
		cfg.MaxPlansPerQuery = DefaultMaxPlansPerQuery
	}
	return &Planner{pool: pool, model: m, cfg: cfg}
}

// candidatesFor returns the pool candidates whose partition key equals
// the given canonical attribute set. The returned slice is shared and
// must be treated as read-only.
func (p *Planner) candidatesFor(partitionKey string) []*schema.Index {
	p.mu.Lock()
	defer p.mu.Unlock()
	if all := p.pool.Indexes(); len(all) != p.indexed {
		p.byPartition = map[string][]*schema.Index{}
		for _, x := range all {
			k := attrKeySet(x.Partition)
			p.byPartition[k] = append(p.byPartition[k], x)
		}
		p.indexed = len(all)
	}
	return p.byPartition[partitionKey]
}

// Pool returns the candidate pool the planner plans over.
func (p *Planner) Pool() *enumerator.Pool { return p.pool }

// costState is the state of the costing fold: the expected row
// cardinality after the steps walked so far, and the cost accumulated
// over them under the planner's model.
type costState struct {
	rows, total float64
}

// fold continues the costing walk from st across steps. Costing a
// sequence is fold from the zero state; because the state is all that
// crosses a step boundary, folding f and then r from f's final state
// performs exactly the float operations of folding f ++ r. That is
// what lets chain generation carry costs instead of recomputing or
// memoizing them.
func (p *Planner) fold(st costState, steps []Step) costState {
	rows, total := st.rows, st.total
	for _, step := range steps {
		switch s := step.(type) {
		case *LookupStep:
			sel := 1.0
			for _, pr := range s.EqPredicates {
				sel *= pr.Ref.Attr.Selectivity()
			}
			rangeFac := 1.0
			if s.RangePredicate != nil {
				rangeFac = p.cfg.RangeSelectivity
			}
			var requests, fetched float64
			if s.JoinKey == nil {
				requests = 1
				fetched = s.Index.Records() * sel * rangeFac
			} else {
				requests = math.Max(rows, 1)
				fetched = requests * s.Index.EntityFanout(s.JoinKey.Entity) * sel * rangeFac
			}
			if fetched < 1 {
				fetched = 1
			}
			if s.Limit > 0 && fetched > float64(s.Limit) {
				fetched = float64(s.Limit)
			}
			total += p.model.Lookup(requests, requests, fetched)
			rows = fetched
		case *FilterStep:
			total += p.model.Filter(rows)
			for _, pr := range s.Predicates {
				if pr.Op == workload.Eq {
					rows *= pr.Ref.Attr.Selectivity()
				} else {
					rows *= p.cfg.RangeSelectivity
				}
			}
			if rows < 1 {
				rows = 1
			}
		case *SortStep:
			total += p.model.Sort(rows)
		case *LimitStep:
			if rows > float64(s.N) {
				rows = float64(s.N)
			}
		}
	}
	return costState{rows: rows, total: total}
}

// isJoinParam reports whether a predicate parameter is an internal id
// binding introduced by query decomposition rather than a statement
// parameter.
func isJoinParam(param string) bool {
	return strings.HasPrefix(param, enumerator.SplitParamPrefix)
}
