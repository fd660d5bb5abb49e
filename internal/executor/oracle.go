package executor

import (
	"fmt"
	"maps"
	"sort"

	"nose/internal/backend"
	"nose/internal/workload"
)

// Oracle computes a query's reference answer directly from the base
// dataset, bypassing any schema: it enumerates the connected entity
// combinations along the query path, filters with the predicates,
// sorts, projects to distinct rows, and applies the limit. Integration
// tests compare every schema's execution against this ground truth.
//
// It shares nothing with the compiled executor but the Tuple it hands
// back: rows are maps keyed by qualified attribute name, every name is
// hashed per row, and duplicates are found by concatenating per-cell
// EncodeKey strings — the reference stays independent of what it checks.
func Oracle(ds *backend.Dataset, q *workload.Query, params Params) ([]Tuple, error) {
	var rows []map[string]backend.Value
	err := ds.ForEachCombination(q.Path, func(t map[string]backend.Value) error {
		ok, err := evalPredicates(q.Where, t, params)
		if err != nil {
			return err
		}
		if ok {
			rows = append(rows, maps.Clone(t))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortRows(rows, q.Order)
	out := projectDistinct(rows, q.Select, q.Order)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, nil
}

// evalPredicates applies predicates to one map row.
func evalPredicates(preds []workload.Predicate, t map[string]backend.Value, params Params) (bool, error) {
	for _, p := range preds {
		have, ok := t[p.Ref.Attr.QualifiedName()]
		if !ok {
			return false, fmt.Errorf("tuple lacks attribute %s for filtering", p.Ref.Attr.QualifiedName())
		}
		want, ok := params[p.Param]
		if !ok {
			return false, fmt.Errorf("missing parameter ?%s", p.Param)
		}
		if !holds(p.Op, backend.CompareValues(have, want)) {
			return false, nil
		}
	}
	return true, nil
}

func sortRows(rows []map[string]backend.Value, by []workload.AttrRef) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, a := range by {
			av, bv := rows[i][a.Attr.QualifiedName()], rows[j][a.Attr.QualifiedName()]
			if av == nil || bv == nil {
				continue
			}
			if c := backend.CompareValues(av, bv); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// projectDistinct keeps only the selected attributes (plus ordering
// attributes) and removes duplicate rows, preserving order.
func projectDistinct(rows []map[string]backend.Value, sel []workload.AttrRef, order []workload.AttrRef) []Tuple {
	cols := newColumns(sel, order)
	out := make([]Tuple, 0, len(rows))
	seen := map[string]bool{}
	for _, t := range rows {
		vals := make([]backend.Value, len(cols.names))
		key := ""
		for i, c := range cols.names {
			vals[i] = t[c]
			key += backend.EncodeKey([]backend.Value{normalizeForKey(vals[i])}) + "\x00"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, Tuple{cols, vals})
		}
	}
	return out
}

// normalizeForKey makes nil values encodable for deduplication.
func normalizeForKey(v backend.Value) backend.Value {
	if v == nil {
		return ""
	}
	return v
}

// CanonicalRows encodes result rows for order-insensitive comparison:
// a sorted slice of canonical row encodings, each the row's
// name=encoded; pairs in ascending name order.
func CanonicalRows(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		for j, v := range t.vals {
			out[i] += t.cols.names[j] + "=" + backend.EncodeKey([]backend.Value{normalizeForKey(v)}) + ";"
		}
	}
	sort.Strings(out)
	return out
}
