package backend

import "nose/internal/model"

// EntityRow returns the instance with the given id keyed by qualified
// attribute name, or nil when there is none or the id cannot be the
// entity's key. The map is a copy: the dataset tests read one row
// through it.
func (d *Dataset) EntityRow(e *model.Entity, id Value) map[string]Value {
	idx, err := d.rowIndex(e, id)
	if err != nil || idx < 0 {
		return nil
	}
	t := d.tables[e]
	row := make(map[string]Value, len(t.rows[idx]))
	for i, v := range t.rows[idx] {
		row[t.attrs[i].QualifiedName()] = v
	}
	return row
}
