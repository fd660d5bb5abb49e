package backend

import (
	"fmt"

	"nose/internal/model"
	"nose/internal/schema"
)

// Dataset is base data for a conceptual model: entity instances plus
// relationship adjacency. It is the single source of truth from which
// any schema's column families are materialized, so executing the same
// query against different schemas must return identical answers.
type Dataset struct {
	// Graph is the conceptual model the data instantiates.
	Graph *model.Graph

	rows map[*model.Entity][]map[string]Value // qualified attr name -> value
	byID map[*model.Entity]map[string]int     // encoded id -> row index
	adj  map[*model.Edge]map[string][]Value   // encoded from-id -> to ids
}

// NewDataset returns an empty dataset over the model.
func NewDataset(g *model.Graph) *Dataset {
	return &Dataset{
		Graph: g,
		rows:  map[*model.Entity][]map[string]Value{},
		byID:  map[*model.Entity]map[string]int{},
		adj:   map[*model.Edge]map[string][]Value{},
	}
}

// ZeroValue returns the Value-domain zero for an attribute type: what
// a cell holds when an insert leaves it unset.
func ZeroValue(t model.AttributeType) Value {
	switch t {
	case model.FloatType:
		return float64(0)
	case model.StringType:
		return ""
	case model.BooleanType:
		return false
	default: // id, integer, date
		return int64(0)
	}
}

// coerce normalizes a raw value into the Value domain for an attribute.
func coerce(a *model.Attribute, v Value) (Value, error) {
	switch a.Type {
	case model.FloatType:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case model.StringType:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case model.BooleanType:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	default:
		switch x := v.(type) {
		case int64:
			return x, nil
		case int:
			return int64(x), nil
		}
	}
	return nil, fmt.Errorf("backend: value %v (%T) invalid for %s %s", v, v, a.Type, a.QualifiedName())
}

// AddEntity inserts one entity instance. The row maps bare attribute
// names to values; missing attributes default to zero values, and the
// key attribute must be present and unique.
func (d *Dataset) AddEntity(e *model.Entity, row map[string]Value) error {
	qualified := make(map[string]Value, len(row))
	for _, a := range e.Attributes() {
		raw, ok := row[a.Name]
		if !ok {
			qualified[a.QualifiedName()] = ZeroValue(a.Type)
			continue
		}
		v, err := coerce(a, raw)
		if err != nil {
			return err
		}
		qualified[a.QualifiedName()] = v
	}
	for name := range row {
		if e.Attribute(name) == nil {
			return fmt.Errorf("backend: entity %s has no attribute %q", e.Name, name)
		}
	}
	id := qualified[e.Key().QualifiedName()]
	ids := d.byID[e]
	if ids == nil {
		ids = map[string]int{}
		d.byID[e] = ids
	}
	ek := EncodeKey([]Value{id})
	if _, dup := ids[ek]; dup {
		return fmt.Errorf("backend: duplicate %s id %v", e.Name, id)
	}
	ids[ek] = len(d.rows[e])
	d.rows[e] = append(d.rows[e], qualified)
	return nil
}

// Connect records one relationship instance between existing entities,
// in both directions.
func (d *Dataset) Connect(edge *model.Edge, fromID, toID Value) error {
	fromID, err := coerce(edge.From.Key(), fromID)
	if err != nil {
		return err
	}
	toID, err = coerce(edge.To.Key(), toID)
	if err != nil {
		return err
	}
	if _, ok := d.byID[edge.From][EncodeKey([]Value{fromID})]; !ok {
		return fmt.Errorf("backend: connect: no %s with id %v", edge.From.Name, fromID)
	}
	if _, ok := d.byID[edge.To][EncodeKey([]Value{toID})]; !ok {
		return fmt.Errorf("backend: connect: no %s with id %v", edge.To.Name, toID)
	}
	d.link(edge, fromID, toID)
	d.link(edge.Inverse, toID, fromID)
	return nil
}

func (d *Dataset) link(edge *model.Edge, fromID, toID Value) {
	m := d.adj[edge]
	if m == nil {
		m = map[string][]Value{}
		d.adj[edge] = m
	}
	k := EncodeKey([]Value{fromID})
	m[k] = append(m[k], toID)
}

// EntityRow returns the instance with the given id (qualified attr
// names), or nil.
func (d *Dataset) EntityRow(e *model.Entity, id Value) map[string]Value {
	idx, ok := d.byID[e][EncodeKey([]Value{id})]
	if !ok {
		return nil
	}
	return d.rows[e][idx]
}

// Neighbors returns the ids reachable from fromID along edge.
func (d *Dataset) Neighbors(edge *model.Edge, fromID Value) []Value {
	return d.adj[edge][EncodeKey([]Value{fromID})]
}

// DefFromIndex derives the store definition of a column family from
// its schema description, using qualified attribute names as column
// names.
func DefFromIndex(x *schema.Index) ColumnFamilyDef {
	def := ColumnFamilyDef{Name: x.Name}
	for _, a := range x.Partition {
		def.PartitionCols = append(def.PartitionCols, a.QualifiedName())
	}
	for _, a := range x.Clustering {
		def.ClusteringCols = append(def.ClusteringCols, a.QualifiedName())
	}
	for _, a := range x.Values {
		def.ValueCols = append(def.ValueCols, a.QualifiedName())
	}
	return def
}

// Installer is the write surface Install needs: *Store satisfies it
// (single-node install) and so does *ReplicatedStore (every record
// lands on all RF replicas of its partition).
type Installer interface {
	Create(def ColumnFamilyDef) error
	Put(name string, partition, clustering []Value, values []Value) (*PutResult, error)
}

// Install creates the column family for x and materializes its records
// from the dataset: one record per combination of connected entities
// along x's path.
func (d *Dataset) Install(s Installer, x *schema.Index) error {
	if x.Name == "" {
		return fmt.Errorf("backend: index %s has no name", x)
	}
	if err := s.Create(DefFromIndex(x)); err != nil {
		return err
	}
	return d.ForEachRecord(x, func(partition, clustering, values []Value) error {
		_, err := s.Put(x.Name, partition, clustering, values)
		return err
	})
}

// ForEachRecord is the one materializer: it enumerates the records the
// dataset yields for index x — one per combination of connected
// entities along x's path, in the dataset's deterministic iteration
// order — calling fn with each record's partition, clustering and value
// cells in definition order (see DefFromIndex). The slices are fresh per
// record; fn may retain them. Installing a family, backfilling it during
// a migration and reconstructing a backfill snapshot after a crash all
// read from here, so they agree on every record by construction.
func (d *Dataset) ForEachRecord(x *schema.Index, fn func(partition, clustering, values []Value) error) error {
	def := DefFromIndex(x)
	return d.ForEachCombination(x.Path, func(tuple map[string]Value) error {
		return fn(cells(tuple, def.PartitionCols), cells(tuple, def.ClusteringCols), cells(tuple, def.ValueCols))
	})
}

// cells copies the named columns out of a combination tuple.
func cells(tuple map[string]Value, cols []string) []Value {
	out := make([]Value, len(cols))
	for i, c := range cols {
		out[i] = tuple[c]
	}
	return out
}

// ForEachCombination enumerates the connected entity combinations
// along a path, calling fn with the merged qualified-attribute tuple of
// each complete combination. The tuple is reused across calls; callers
// must copy values they retain.
func (d *Dataset) ForEachCombination(path model.Path, fn func(map[string]Value) error) error {
	tuple := map[string]Value{}
	var rec func(pos int, row map[string]Value) error
	rec = func(pos int, row map[string]Value) error {
		for k, v := range row {
			tuple[k] = v
		}
		if pos == path.Len()-1 {
			return fn(tuple)
		}
		edge := path.Edges[pos]
		id := row[path.EntityAt(pos).Key().QualifiedName()]
		for _, nid := range d.Neighbors(edge, id) {
			next := d.EntityRow(edge.To, nid)
			if next == nil {
				continue
			}
			if err := rec(pos+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range d.rows[path.Start] {
		if row == nil {
			continue // removed instance
		}
		if err := rec(0, row); err != nil {
			return err
		}
	}
	return nil
}

// UpdateEntity modifies attributes of an existing instance (bare
// attribute names). The key attribute cannot be changed.
//
// UpdateEntity, Disconnect and RemoveEntity are the write side of the
// reference data: production generates a dataset once and sends writes
// to the store, but the executor's differential tests mirror every
// write they execute into the dataset so that Oracle answers over the
// data those writes should have left.
func (d *Dataset) UpdateEntity(e *model.Entity, id Value, attrs map[string]Value) error {
	row := d.EntityRow(e, id)
	if row == nil {
		return fmt.Errorf("backend: no %s with id %v", e.Name, id)
	}
	for name, raw := range attrs {
		a := e.Attribute(name)
		if a == nil {
			return fmt.Errorf("backend: entity %s has no attribute %q", e.Name, name)
		}
		if a == e.Key() {
			return fmt.Errorf("backend: cannot change key of %s", e.Name)
		}
		v, err := coerce(a, raw)
		if err != nil {
			return err
		}
		row[a.QualifiedName()] = v
	}
	return nil
}

// Disconnect removes one relationship instance in both directions (see
// UpdateEntity for who calls it).
func (d *Dataset) Disconnect(edge *model.Edge, fromID, toID Value) error {
	fromID, err := coerce(edge.From.Key(), fromID)
	if err != nil {
		return err
	}
	toID, err = coerce(edge.To.Key(), toID)
	if err != nil {
		return err
	}
	d.unlink(edge, fromID, toID)
	d.unlink(edge.Inverse, toID, fromID)
	return nil
}

func (d *Dataset) unlink(edge *model.Edge, fromID, toID Value) {
	k := EncodeKey([]Value{fromID})
	ids := d.adj[edge][k]
	for i, v := range ids {
		if CompareValues(v, toID) == 0 {
			d.adj[edge][k] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// RemoveEntity deletes an instance and all its relationship instances
// (see UpdateEntity for who calls it).
func (d *Dataset) RemoveEntity(e *model.Entity, id Value) error {
	id, err := coerce(e.Key(), id)
	if err != nil {
		return err
	}
	k := EncodeKey([]Value{id})
	idx, ok := d.byID[e][k]
	if !ok {
		return fmt.Errorf("backend: no %s with id %v", e.Name, id)
	}
	for _, edge := range e.Edges() {
		for _, nid := range append([]Value(nil), d.adj[edge][k]...) {
			d.unlink(edge, id, nid)
			d.unlink(edge.Inverse, nid, id)
		}
	}
	// Tombstone the row; index positions of other rows stay valid.
	d.rows[e][idx] = nil
	delete(d.byID[e], k)
	return nil
}
