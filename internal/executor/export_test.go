package executor

import "nose/internal/backend"

// Get returns the value of a column by qualified attribute name. No
// production caller reads one cell of a row; the reference comparison
// and the ordering and semantics tests do.
func (t Tuple) Get(name string) (backend.Value, bool) {
	if t.cols != nil {
		for i, n := range t.cols.names {
			if n == name {
				return t.vals[i], true
			}
		}
	}
	return nil, false
}
