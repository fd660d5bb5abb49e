package backend

import (
	"fmt"
	"math"

	"nose/internal/model"
	"nose/internal/schema"
)

// Dataset is base data for a conceptual model: entity instances plus
// relationship adjacency. It is the single source of truth from which
// any schema's column families are materialized, so executing the same
// query against different schemas must return identical answers.
//
// Rows are addressed by index: an entity's rows sit in insertion order,
// a removed row leaves a nil tombstone so later indices stay valid, and
// adjacency links row indices, so a path walk follows integers and
// hashes nothing. Ids are hashed only where they come in, through byID.
type Dataset struct {
	// Graph is the conceptual model the data instantiates.
	Graph *model.Graph

	rows map[*model.Entity][]map[string]Value // qualified attr name -> value; nil once removed
	byID map[*model.Entity]map[string]int     // encoded id -> row index
	adj  map[*model.Edge][][]int32            // from-row index -> to-row indices, in link order
}

// NewDataset returns an empty dataset over the model.
func NewDataset(g *model.Graph) *Dataset {
	return &Dataset{
		Graph: g,
		rows:  map[*model.Entity][]map[string]Value{},
		byID:  map[*model.Entity]map[string]int{},
		adj:   map[*model.Edge][][]int32{},
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

// Coerce normalizes a raw value into the Value domain for an attribute:
// an int becomes the attribute's int64 or float64, and an int64 a
// float attribute's float64. A value already of the attribute's type
// comes back as it was, boxed once, so coercing it allocates nothing.
// Any other value is an error.
func Coerce(a *model.Attribute, v Value) (Value, error) {
	switch a.Type {
	case model.FloatType:
		switch x := v.(type) {
		case float64:
			return v, nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		}
	case model.StringType:
		if _, ok := v.(string); ok {
			return v, nil
		}
	case model.BooleanType:
		if _, ok := v.(bool); ok {
			return v, nil
		}
	default:
		switch x := v.(type) {
		case int64:
			return v, nil
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
		v, err := Coerce(a, raw)
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
	if len(d.rows[e]) >= math.MaxInt32 {
		return fmt.Errorf("backend: %s already has %d rows, adjacency addresses no more", e.Name, len(d.rows[e]))
	}
	ids[ek] = len(d.rows[e])
	d.rows[e] = append(d.rows[e], qualified)
	return nil
}

// Connect records one relationship instance between existing entities,
// in both directions.
func (d *Dataset) Connect(edge *model.Edge, fromID, toID Value) error {
	from, to, err := d.endpoints(edge, fromID, toID)
	if err != nil {
		return err
	}
	if from < 0 {
		return fmt.Errorf("backend: connect: no %s with id %v", edge.From.Name, fromID)
	}
	if to < 0 {
		return fmt.Errorf("backend: connect: no %s with id %v", edge.To.Name, toID)
	}
	d.link(edge, from, to)
	d.link(edge.Inverse, to, from)
	return nil
}

// endpoints resolves a relationship instance's ids to row indices, -1
// for an id with no row.
func (d *Dataset) endpoints(edge *model.Edge, fromID, toID Value) (from, to int32, err error) {
	if from, err = d.rowIndex(edge.From, fromID); err != nil {
		return 0, 0, err
	}
	if to, err = d.rowIndex(edge.To, toID); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

// rowIndex resolves an id as the caller passed it: coerced to the
// entity's key type, as AddEntity stored it, then looked up. It returns
// the row index of the instance with that id, or -1. Every entry point
// that takes an id goes through it.
func (d *Dataset) rowIndex(e *model.Entity, id Value) (int32, error) {
	id, err := Coerce(e.Key(), id)
	if err != nil {
		return -1, err
	}
	idx, ok := d.byID[e][EncodeKey([]Value{id})]
	if !ok {
		return -1, nil
	}
	return int32(idx), nil
}

func (d *Dataset) link(edge *model.Edge, from, to int32) {
	lists := d.adj[edge]
	if int(from) >= len(lists) {
		lists = append(lists, make([][]int32, int(from)+1-len(lists))...)
		d.adj[edge] = lists
	}
	lists[from] = append(lists[from], to)
}

// EntityRow returns the instance with the given id (qualified attr
// names), or nil when there is none or the id cannot be the entity's
// key.
func (d *Dataset) EntityRow(e *model.Entity, id Value) map[string]Value {
	idx, err := d.rowIndex(e, id)
	if err != nil || idx < 0 {
		return nil
	}
	return d.rows[e][idx]
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
	partition, clustering, values := columnsOf(x.Path, x.Partition), columnsOf(x.Path, x.Clustering), columnsOf(x.Path, x.Values)
	return d.ForEachCombination(x.Path, func(c *Combination) error {
		return fn(c.cells(partition), c.cells(clustering), c.cells(values))
	})
}

// column is where a combination holds one attribute: the path position
// whose row carries it (-1 when none does) and its qualified name.
type column struct {
	pos  int
	name string
}

// columnsOf resolves attributes to the path positions that hold them.
func columnsOf(path model.Path, attrs []*model.Attribute) []column {
	out := make([]column, len(attrs))
	for i, a := range attrs {
		out[i] = column{lastPosition(path, a.Entity), a.QualifiedName()}
	}
	return out
}

// lastPosition is the last position of e on the path, or -1: the row
// whose value a merge of the path's rows in order would keep.
func lastPosition(path model.Path, e *model.Entity) int {
	for i := len(path.Edges); i >= 0; i-- {
		if path.EntityAt(i) == e {
			return i
		}
	}
	return -1
}

// Combination is one complete combination of connected entity
// instances along a path: the row at each path position.
// ForEachCombination reuses it across calls, so a caller reads what it
// needs during the call and copies values it retains.
type Combination struct {
	path model.Path
	rows []map[string]Value
}

// Value returns attribute a's value in the combination: from the row at
// the last path position holding a's entity, the value a merge of the
// rows in path order keeps. ok is false when no position holds it.
func (c *Combination) Value(a *model.Attribute) (Value, bool) {
	pos := lastPosition(c.path, a.Entity)
	if pos < 0 {
		return nil, false
	}
	v, ok := c.rows[pos][a.QualifiedName()]
	return v, ok
}

// Tuple returns a fresh map of the combination's rows merged in path
// order, keyed by qualified attribute name.
func (c *Combination) Tuple() map[string]Value {
	n := 0
	for _, row := range c.rows {
		n += len(row)
	}
	t := make(map[string]Value, n)
	for _, row := range c.rows {
		for k, v := range row {
			t[k] = v
		}
	}
	return t
}

// cells copies resolved columns out of a combination.
func (c *Combination) cells(cols []column) []Value {
	out := make([]Value, len(cols))
	for i, col := range cols {
		if col.pos >= 0 {
			out[i] = c.rows[col.pos][col.name]
		}
	}
	return out
}

// ForEachCombination enumerates the connected entity combinations
// along a path, calling fn with each complete combination. It walks row
// indices: the start entity's rows in order, then each edge's
// adjacency of the row before it in link order, skipping removed rows,
// so it neither hashes an id nor merges a row on the way. The
// Combination is reused across calls.
func (d *Dataset) ForEachCombination(path model.Path, fn func(*Combination) error) error {
	n := path.Len()
	c := &Combination{path: path, rows: make([]map[string]Value, n)}
	rows := make([][]map[string]Value, n)
	adj := make([][][]int32, n-1)
	for i := range rows {
		rows[i] = d.rows[path.EntityAt(i)]
		if i > 0 {
			adj[i-1] = d.adj[path.Edges[i-1]]
		}
	}
	// step fills position pos from the neighbours of row from at pos-1.
	var step func(pos int, from int32) error
	step = func(pos int, from int32) error {
		if pos == n {
			return fn(c)
		}
		if int(from) >= len(adj[pos-1]) {
			return nil
		}
		for _, to := range adj[pos-1][from] {
			row := rows[pos][to]
			if row == nil {
				continue
			}
			c.rows[pos] = row
			if err := step(pos+1, to); err != nil {
				return err
			}
		}
		return nil
	}
	for i, row := range rows[0] {
		if row == nil {
			continue // removed instance
		}
		c.rows[0] = row
		if err := step(1, int32(i)); err != nil {
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
		v, err := Coerce(a, raw)
		if err != nil {
			return err
		}
		row[a.QualifiedName()] = v
	}
	return nil
}

// Disconnect removes one relationship instance in both directions (see
// UpdateEntity for who calls it). A link that is not there is a no-op.
func (d *Dataset) Disconnect(edge *model.Edge, fromID, toID Value) error {
	from, to, err := d.endpoints(edge, fromID, toID)
	if err != nil || from < 0 || to < 0 {
		return err
	}
	d.unlink(edge, from, to)
	d.unlink(edge.Inverse, to, from)
	return nil
}

// unlink removes the first link from row from to row to along edge.
func (d *Dataset) unlink(edge *model.Edge, from, to int32) {
	lists := d.adj[edge]
	if int(from) >= len(lists) {
		return
	}
	for i, v := range lists[from] {
		if v == to {
			lists[from] = append(lists[from][:i], lists[from][i+1:]...)
			return
		}
	}
}

// RemoveEntity deletes an instance and all its relationship instances
// (see UpdateEntity for who calls it).
func (d *Dataset) RemoveEntity(e *model.Entity, id Value) error {
	idx, err := d.rowIndex(e, id)
	if err != nil {
		return err
	}
	if idx < 0 {
		return fmt.Errorf("backend: no %s with id %v", e.Name, id)
	}
	key := d.rows[e][idx][e.Key().QualifiedName()]
	for _, edge := range e.Edges() {
		if lists := d.adj[edge]; int(idx) < len(lists) {
			for _, to := range lists[idx] {
				d.unlink(edge.Inverse, to, idx)
			}
			lists[idx] = nil
		}
	}
	// Tombstone the row; index positions of other rows stay valid.
	d.rows[e][idx] = nil
	delete(d.byID[e], EncodeKey([]Value{key}))
	return nil
}
