package executor_test

import (
	"fmt"
	"math"
	"sort"

	"nose/internal/backend"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// refExecutor is the map-row interpreter the compiled executor
// replaced: PR 15's run/lookup/projectDistinct/ExecuteWrite, kept on
// the test side as the reference for what a plan — any plan, including
// ones off the query's path that do not answer it exactly — must
// return and cost. Every row is a map keyed by qualified attribute
// name, every column family definition is asked of the store, every
// dedupe key is a concatenated string. It does not retry: it is only
// run against healthy stores.
type refExecutor struct {
	store backend.KVBackend
	lat   cost.Params
}

type refTuple map[string]backend.Value

func (e *refExecutor) query(plan *planner.Plan, params executor.Params) ([]refTuple, float64, error) {
	rows, sim, err := e.run(plan.Steps, params, []refTuple{{}})
	if err != nil {
		return nil, sim, err
	}
	return refProjectDistinct(rows, plan.Query.Select, plan.Query.Order), sim, nil
}

func (e *refExecutor) run(steps []planner.Step, params executor.Params, seeds []refTuple) ([]refTuple, float64, error) {
	tuples := seeds
	sim := 0.0
	for _, st := range steps {
		switch s := st.(type) {
		case *planner.LookupStep:
			next, millis, err := e.lookup(s, params, tuples)
			sim += millis
			if err != nil {
				return nil, sim, err
			}
			tuples = next
		case *planner.FilterStep:
			sim += e.lat.FilterRowCost * float64(len(tuples))
			kept := tuples[:0:0]
			for _, t := range tuples {
				ok, err := refEvalPredicates(s.Predicates, t, params)
				if err != nil {
					return nil, sim, err
				}
				if ok {
					kept = append(kept, t)
				}
			}
			tuples = kept
		case *planner.SortStep:
			n := float64(len(tuples))
			if n > 1 {
				sim += e.lat.SortRowCost * n * math.Log2(n)
			}
			sort.SliceStable(tuples, func(i, j int) bool {
				for _, a := range s.By {
					av, bv := tuples[i][a.Attr.QualifiedName()], tuples[j][a.Attr.QualifiedName()]
					if av == nil || bv == nil {
						continue
					}
					if c := backend.CompareValues(av, bv); c != 0 {
						return c < 0
					}
				}
				return false
			})
		case *planner.LimitStep:
			if len(tuples) > s.N {
				tuples = tuples[:s.N]
			}
		default:
			return nil, sim, fmt.Errorf("unknown step %T", st)
		}
	}
	return tuples, sim, nil
}

func (e *refExecutor) lookup(s *planner.LookupStep, params executor.Params, driving []refTuple) ([]refTuple, float64, error) {
	def, err := e.store.Def(s.Index.Name)
	if err != nil {
		return nil, 0, err
	}
	eqByAttr := map[string]string{}
	for _, p := range s.EqPredicates {
		eqByAttr[p.Ref.Attr.QualifiedName()] = p.Param
	}
	joinCol := ""
	if s.JoinKey != nil {
		joinCol = s.JoinKey.QualifiedName()
	}
	var ranges []backend.ClusterRange
	if rp := s.RangePredicate; rp != nil {
		v, ok := params.Param(rp.Param)
		if !ok {
			return nil, 0, fmt.Errorf("missing parameter ?%s", rp.Param)
		}
		op := map[workload.Op]backend.RangeOp{
			workload.Gt: backend.GT, workload.Ge: backend.GE, workload.Lt: backend.LT, workload.Le: backend.LE,
		}[rp.Op]
		ranges = append(ranges, backend.ClusterRange{Op: op, Value: v})
	}
	var out []refTuple
	sim := 0.0
	for _, t := range driving {
		partition := make([]backend.Value, len(def.PartitionCols))
		for i, col := range def.PartitionCols {
			switch {
			case col == joinCol:
				v, ok := t[col]
				if !ok {
					return nil, sim, fmt.Errorf("driving tuple lacks join key %s", col)
				}
				partition[i] = v
			default:
				if pname, ok := eqByAttr[col]; ok {
					if v, ok := params.Param(pname); ok {
						partition[i] = v
						continue
					}
				}
				v, ok := t[col]
				if !ok {
					return nil, sim, fmt.Errorf("no binding for partition column %s of %s", col, s.Index.Name)
				}
				partition[i] = v
			}
		}
		res, err := e.store.Get(s.Index.Name, backend.GetRequest{Partition: partition, Ranges: ranges, Limit: s.Limit})
		if err != nil {
			return nil, sim, err
		}
		sim += res.SimMillis
		for _, rec := range res.Records {
			merged := make(refTuple, len(t)+len(def.PartitionCols)+len(rec.Clustering)+len(rec.Values))
			for k, v := range t {
				merged[k] = v
			}
			for i, col := range def.PartitionCols {
				merged[col] = partition[i]
			}
			for i, col := range def.ClusteringCols {
				merged[col] = rec.Clustering[i]
			}
			for i, col := range def.ValueCols {
				merged[col] = rec.Values[i]
			}
			out = append(out, merged)
		}
	}
	return out, sim, nil
}

func refEvalPredicates(preds []workload.Predicate, t refTuple, params executor.Params) (bool, error) {
	for _, p := range preds {
		have, ok := t[p.Ref.Attr.QualifiedName()]
		if !ok {
			return false, fmt.Errorf("tuple lacks attribute %s for filtering", p.Ref.Attr.QualifiedName())
		}
		want, ok := params.Param(p.Param)
		if !ok {
			return false, fmt.Errorf("missing parameter ?%s", p.Param)
		}
		c := backend.CompareValues(have, want)
		pass := map[workload.Op]bool{
			workload.Eq: c == 0, workload.Gt: c > 0, workload.Ge: c >= 0, workload.Lt: c < 0, workload.Le: c <= 0,
		}[p.Op]
		if !pass {
			return false, nil
		}
	}
	return true, nil
}

func refNormalize(v backend.Value) backend.Value {
	if v == nil {
		return ""
	}
	return v
}

func refProjectDistinct(rows []refTuple, sel, order []workload.AttrRef) []refTuple {
	var cols []string
	seenCol := map[string]bool{}
	for _, refs := range [][]workload.AttrRef{sel, order} {
		for _, r := range refs {
			if n := r.Attr.QualifiedName(); !seenCol[n] {
				seenCol[n] = true
				cols = append(cols, n)
			}
		}
	}
	out := make([]refTuple, 0, len(rows))
	seen := map[string]bool{}
	for _, t := range rows {
		proj := make(refTuple, len(cols))
		key := ""
		for _, c := range cols {
			proj[c] = t[c]
			key += backend.EncodeKey([]backend.Value{refNormalize(t[c])}) + "\x00"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, proj)
		}
	}
	return out
}

// write is the old ExecuteWrite: every family's support reads, then
// every family's deletes and puts.
func (e *refExecutor) write(urs []*search.UpdateRecommendation, params executor.Params) (float64, error) {
	type pending struct {
		ur                 *search.UpdateRecommendation
		tuples             []refTuple
		overrides          refTuple
		doDelete, doInsert bool
	}
	sim := 0.0
	var staged []pending
	for _, ur := range urs {
		seeds, overrides, doDelete, doInsert, err := refUpdateContext(ur.Plan.Statement, params)
		if err != nil {
			return sim, err
		}
		tuples := seeds
		for _, sp := range ur.SupportPlans {
			rows, millis, err := e.run(sp.Steps, params, tuples)
			sim += millis
			if err != nil {
				return sim, err
			}
			tuples = rows
		}
		staged = append(staged, pending{ur, tuples, overrides, doDelete, doInsert})
	}
	for _, p := range staged {
		millis, err := e.applyWrites(p.ur.Plan.Index, p.tuples, p.overrides, p.doDelete, p.doInsert)
		sim += millis
		if err != nil {
			return sim, err
		}
	}
	return sim, nil
}

func (e *refExecutor) applyWrites(x *schema.Index, tuples []refTuple, overrides refTuple, doDelete, doInsert bool) (float64, error) {
	cells := func(attrs []*model.Attribute, t, overrides refTuple) []backend.Value {
		out := make([]backend.Value, len(attrs))
		for i, a := range attrs {
			out[i] = refValueOf(t, a, overrides)
		}
		return out
	}
	sim := 0.0
	for _, t := range tuples {
		if doDelete {
			_, pr, err := e.store.Delete(x.Name, cells(x.Partition, t, nil), cells(x.Clustering, t, nil))
			if err != nil {
				return sim, err
			}
			sim += pr.SimMillis
		}
		if doInsert {
			pr, err := e.store.Put(x.Name, cells(x.Partition, t, overrides), cells(x.Clustering, t, overrides), cells(x.Values, t, overrides))
			if err != nil {
				return sim, err
			}
			sim += pr.SimMillis
		}
	}
	return sim, nil
}

func refValueOf(t refTuple, a *model.Attribute, overrides refTuple) backend.Value {
	q := a.QualifiedName()
	if overrides != nil {
		if v, ok := overrides[q]; ok {
			return v
		}
	}
	if v, ok := t[q]; ok && v != nil {
		return v
	}
	return backend.ZeroValue(a.Type)
}

func refUpdateContext(stmt workload.WriteStatement, params executor.Params) (seeds []refTuple, overrides refTuple, doDelete, doInsert bool, err error) {
	seed := refTuple{}
	bind := func(a *model.Attribute, param string, into refTuple) {
		v, ok := params.Param(param)
		if !ok && err == nil {
			err = fmt.Errorf("executor: %q missing parameter ?%s", workload.Label(stmt), param)
		}
		into[a.QualifiedName()] = v
	}
	bindKey := func(where []workload.Predicate, key *model.Attribute) {
		for _, p := range where {
			if p.Op == workload.Eq && p.Ref.Attr == key {
				bind(key, p.Param, seed)
			}
		}
	}
	switch st := stmt.(type) {
	case *workload.Update:
		doDelete, doInsert = true, true
		overrides = refTuple{}
		for _, asg := range st.Set {
			bind(asg.Attr, asg.Param, overrides)
		}
		bindKey(st.Where, st.Entity().Key())
	case *workload.Delete:
		doDelete = true
		bindKey(st.Where, st.Entity().Key())
	case *workload.Insert:
		doInsert = true
		bind(st.Entity.Key(), st.KeyParam, seed)
		for _, asg := range st.Set {
			bind(asg.Attr, asg.Param, seed)
		}
		for _, c := range st.Connections {
			bind(c.Edge.To.Key(), c.Param, seed)
		}
	case *workload.Connect:
		doDelete, doInsert = st.Disconnect, !st.Disconnect
		bind(st.Edge.From.Key(), st.FromParam, seed)
		bind(st.Edge.To.Key(), st.ToParam, seed)
	default:
		err = fmt.Errorf("executor: unsupported statement %T", stmt)
	}
	return []refTuple{seed}, overrides, doDelete, doInsert, err
}

// sameRows reports how the compiled executor's rows differ from the
// reference's: same count, same order, same columns, and every cell
// equal by key encoding (so int64(1) and float64(1) differ).
func sameRows(got []executor.Tuple, want []refTuple) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference has %d", len(got), len(want))
	}
	canon := executor.CanonicalRows(got)
	ref := make([]string, len(want))
	for i, t := range want {
		names := make([]string, 0, len(t))
		for name := range t {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ref[i] += name + "=" + backend.EncodeKey([]backend.Value{refNormalize(t[name])}) + ";"
			v, ok := got[i].Get(name)
			if !ok || backend.EncodeKey([]backend.Value{refNormalize(v)}) != backend.EncodeKey([]backend.Value{refNormalize(t[name])}) {
				return fmt.Sprintf("row %d column %s is %v (present %v), reference has %v", i, name, v, ok, t[name])
			}
		}
	}
	sort.Strings(ref)
	for i := range ref {
		if canon[i] != ref[i] {
			return fmt.Sprintf("canonical row %q, reference %q", canon[i], ref[i])
		}
	}
	return ""
}
