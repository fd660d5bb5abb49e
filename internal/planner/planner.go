package planner

import (
	"math"
	"slices"
	"strings"
	"sync"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/model"
	"nose/internal/obs"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Config tunes plan-space generation.
type Config struct {
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

// Planner generates plan spaces for statements over a candidate pool.
// It is safe for concurrent use: plan-space generation for different
// statements may run on separate goroutines sharing one Planner.
//
// A planner lives for one advise or one series and remembers, for that
// long, every step and every segment it has generated (stepTable,
// segment): a statement, support query or series phase that needs one
// again gets the same immutable value. What it remembers changes no
// plan space, only how much of it is built anew.
type Planner struct {
	pool  *enumerator.Pool
	model cost.Model
	cfg   Config

	// byPartition indexes the pool, as it stood at New, by canonical
	// partition key so lookup-variant generation touches only
	// structurally compatible candidates. Read-only after New.
	byPartition map[string][]*schema.Index

	table stepTable

	// mu guards what follows.
	mu       sync.Mutex
	segments map[string]*segment
	// idle holds the working memory of finished PlanQuery calls for the
	// next ones: as many as ever ran at once, kept for the planner's
	// life. See the scratch type.
	idle []*scratch

	// count holds the planner.* counters SetObs bound, nil (counting
	// nothing) until it has; the step table holds planner.steps.
	count struct {
		segmentRequests, segments, stepRequests, examined, joined *obs.Counter
	}
}

// New returns a planner over the given candidate pool and cost model.
// The pool must be complete: families added to it later are not
// planned over.
func New(pool *enumerator.Pool, m cost.Model, cfg Config) *Planner {
	if cfg.MaxPlansPerQuery <= 0 {
		cfg.MaxPlansPerQuery = DefaultMaxPlansPerQuery
	}
	p := &Planner{
		pool: pool, model: m, cfg: cfg,
		byPartition: map[string][]*schema.Index{},
		segments:    map[string]*segment{},
	}
	p.table.init(pool.Len())
	for _, x := range pool.Indexes() {
		k := string(appendAttrKey(nil, x.Partition))
		p.byPartition[k] = append(p.byPartition[k], x)
	}
	return p
}

// candidatesFor returns the pool candidates whose partition key is
// exactly the given attributes. The returned slice is shared and must
// be treated as read-only.
func (p *Planner) candidatesFor(partition []*model.Attribute) []*schema.Index {
	var buf [128]byte
	return p.byPartition[string(appendAttrKey(buf[:0], partition))]
}

// appendAttrKey appends the canonical form of an attribute set: the
// qualified names, sorted, each followed by '|'.
func appendAttrKey(dst []byte, attrs []*model.Attribute) []byte {
	var buf [8]string
	names := buf[:0]
	for _, a := range attrs {
		names = append(names, a.QualifiedName())
	}
	slices.Sort(names)
	for _, n := range names {
		dst = append(append(dst, n...), '|')
	}
	return dst
}

// Pool returns the candidate pool the planner plans over.
func (p *Planner) Pool() *enumerator.Pool { return p.pool }

// SetObs binds the planner's generation counters to r's planner.*
// counters; a nil r binds none. They count how many segments and steps
// its plan spaces asked for and how many distinct ones that made it
// build, how many candidate families segment generation examined and
// how many candidate chains decomposition joined:
//
//   - planner.segment_requests and planner.segments;
//   - planner.step_requests and planner.steps;
//   - planner.candidates_examined;
//   - planner.chains_joined.
//
// Each is a request count or a count of distinct values built, none of
// which depends on which worker got where first, so they are equal at
// any worker count. A PlanQuery call adds its requests when it ends.
// Bind before planning: what the planner did before is not counted.
func (p *Planner) SetObs(r *obs.Registry) {
	p.count.segmentRequests = r.Counter("planner.segment_requests")
	p.count.segments = r.Counter("planner.segments")
	p.count.stepRequests = r.Counter("planner.step_requests")
	p.table.created = r.Counter("planner.steps")
	p.count.examined = r.Counter("planner.candidates_examined")
	p.count.joined = r.Counter("planner.chains_joined")
}

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
				rangeFac = enumerator.RangeSelectivity
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
					rows *= enumerator.RangeSelectivity
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
