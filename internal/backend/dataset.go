package backend

import (
	"fmt"
	"math"
	"slices"

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
// hashes nothing. A row is a slice of cells, cell i holding the
// attribute at Position i of its entity's definition order, so a read
// indexes a slice and hashes no name. Ids are hashed only where they
// come in, through each entity's id map, as int64 keys.
type Dataset struct {
	// Graph is the conceptual model the data instantiates.
	Graph *model.Graph

	tables map[*model.Entity]*table
	adj    map[*model.Edge][][]int32 // from-row index -> to-row indices, in link order
}

// table is one entity's instances.
type table struct {
	// attrs is the entity's attributes in definition order: cell i of
	// a row holds attrs[i]. A row added before the entity gained an
	// attribute is shorter than attrs and lacks it.
	attrs []*model.Attribute
	rows  [][]Value       // in insertion order; nil once removed
	byID  map[int64]int32 // id -> row index
	// free is the unused tail of the block rows are carved from, so
	// adding a row allocates a block per rowBlock rows, not a slice.
	free []Value
}

// rowBlock is how many rows' cells one block holds.
const rowBlock = 256

// NewDataset returns an empty dataset over the model.
func NewDataset(g *model.Graph) *Dataset {
	return &Dataset{
		Graph:  g,
		tables: map[*model.Entity]*table{},
		adj:    map[*model.Edge][][]int32{},
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
	t := d.tables[e]
	if t == nil {
		t = &table{attrs: e.Attributes(), byID: map[int64]int32{}}
		d.tables[e] = t
	}
	for name := range row {
		a := e.Attribute(name)
		if a == nil {
			return fmt.Errorf("backend: entity %s has no attribute %q", e.Name, name)
		}
		if a.Position() >= len(t.attrs) { // defined after the entity's first row
			t.attrs = e.Attributes()
		}
	}
	if len(t.free) < len(t.attrs) {
		t.free = make([]Value, rowBlock*len(t.attrs))
	}
	cells := t.free[:len(t.attrs):len(t.attrs)]
	for i, a := range t.attrs {
		raw, ok := row[a.Name]
		if !ok {
			cells[i] = ZeroValue(a.Type)
			continue
		}
		v, err := Coerce(a, raw)
		if err != nil {
			return err
		}
		cells[i] = v
	}
	id, err := keyOf(e, cells[e.Key().Position()])
	if err != nil {
		return err
	}
	if _, dup := t.byID[id]; dup {
		return fmt.Errorf("backend: duplicate %s id %v", e.Name, id)
	}
	if len(t.rows) >= math.MaxInt32 {
		return fmt.Errorf("backend: %s already has %d rows, adjacency addresses no more", e.Name, len(t.rows))
	}
	t.free = t.free[len(cells):]
	t.byID[id] = int32(len(t.rows))
	t.rows = append(t.rows, cells)
	return nil
}

// keyOf coerces an id to its entity's key type, IDType, as AddEntity
// stores it: an int64. Coercing an int allocates nothing.
func keyOf(e *model.Entity, id Value) (int64, error) {
	switch x := id.(type) {
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	}
	if _, err := Coerce(e.Key(), id); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("backend: %s key %s is %s, not an id", e.Name, e.Key().QualifiedName(), e.Key().Type)
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
	k, err := keyOf(e, id)
	if err != nil {
		return -1, err
	}
	t := d.tables[e]
	if t == nil {
		return -1, nil
	}
	idx, ok := t.byID[k]
	if !ok {
		return -1, nil
	}
	return idx, nil
}

func (d *Dataset) link(edge *model.Edge, from, to int32) {
	lists := d.adj[edge]
	if int(from) >= len(lists) {
		lists = append(lists, make([][]int32, int(from)+1-len(lists))...)
		d.adj[edge] = lists
	}
	lists[from] = append(lists[from], to)
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
// lands on all RF replicas of its partition). Write returns a record's
// service time, not a result to drop, so an install allocates only
// what the store keeps.
type Installer interface {
	Create(def ColumnFamilyDef) error
	Write(name string, partition, clustering []Value, values []Value) (float64, error)
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
		_, err := s.Write(x.Name, partition, clustering, values)
		return err
	})
}

// ForEachRecord is the one materializer: it enumerates the records the
// dataset yields for index x — one per combination of connected
// entities along x's path, in the dataset's deterministic iteration
// order — calling fn with each record's partition, clustering and value
// cells in definition order (see DefFromIndex). The slices are fresh per
// record, cut from one array; fn may retain them. Installing a family,
// backfilling it during a migration and reconstructing a backfill
// snapshot after a crash all read from here, so they agree on every
// record by construction.
func (d *Dataset) ForEachRecord(x *schema.Index, fn func(partition, clustering, values []Value) error) error {
	np, nc := len(x.Partition), len(x.Clustering)
	cols := columnsOf(x.Path, slices.Concat(x.Partition, x.Clustering, x.Values))
	return d.ForEachCombination(x.Path, func(c *Combination) error {
		cells := make([]Value, len(cols))
		for i, col := range cols {
			cells[i], _ = c.Value(col)
		}
		return fn(cells[:np:np], cells[np:np+nc:np+nc], cells[np+nc:])
	})
}

// Column is where the combinations of one path hold one attribute:
// the path position whose row carries it and the attribute's cell in
// that row. ColumnOf resolves it once; Combination.Value then reads it
// by two slice indices.
type Column struct {
	pos, cell int
}

// ColumnOf resolves attribute a on path: the last position of a's
// entity on the path — the row whose value a merge of the path's rows
// in order would keep — and a's position in its entity. An attribute
// whose entity the path never visits resolves to a column no
// combination holds.
func ColumnOf(path model.Path, a *model.Attribute) Column {
	for i := len(path.Edges); i >= 0; i-- {
		if path.EntityAt(i) == a.Entity {
			return Column{i, a.Position()}
		}
	}
	return Column{-1, -1}
}

// columnsOf resolves attributes on a path, once per family.
func columnsOf(path model.Path, attrs []*model.Attribute) []Column {
	out := make([]Column, len(attrs))
	for i, a := range attrs {
		out[i] = ColumnOf(path, a)
	}
	return out
}

// Combination is one complete combination of connected entity
// instances along a path: the row at each path position, each row's
// cells in its entity's definition order. ForEachCombination reuses it
// across calls, so a caller reads what it needs during the call and
// copies values it retains.
type Combination struct {
	rows  [][]Value
	attrs [][]*model.Attribute // each position's attributes, cell by cell
}

// Value returns the combination's value in col, which ColumnOf resolved
// on the path the combination walks. ok is false when no position holds
// the column: its entity is not on the path, or the row predates the
// attribute.
func (c *Combination) Value(col Column) (Value, bool) {
	if col.pos < 0 || col.cell < 0 || col.cell >= len(c.rows[col.pos]) {
		return nil, false
	}
	return c.rows[col.pos][col.cell], true
}

// Tuple returns a fresh map of the combination's rows merged in path
// order, keyed by qualified attribute name.
func (c *Combination) Tuple() map[string]Value {
	n := 0
	for _, row := range c.rows {
		n += len(row)
	}
	t := make(map[string]Value, n)
	for pos, row := range c.rows {
		for i, v := range row {
			t[c.attrs[pos][i].QualifiedName()] = v
		}
	}
	return t
}

// ForEachCombination enumerates the connected entity combinations
// along a path, calling fn with each complete combination. It walks row
// indices: the start entity's rows in order, then each edge's
// adjacency of the row before it in link order, skipping removed rows,
// so it neither hashes an id nor merges a row on the way. The
// Combination is reused across calls.
func (d *Dataset) ForEachCombination(path model.Path, fn func(*Combination) error) error {
	n := path.Len()
	c := &Combination{rows: make([][]Value, n), attrs: make([][]*model.Attribute, n)}
	rows := make([][][]Value, n)
	adj := make([][][]int32, n-1)
	for i := range rows {
		if t := d.tables[path.EntityAt(i)]; t != nil {
			rows[i], c.attrs[i] = t.rows, t.attrs
		}
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
	idx, err := d.rowIndex(e, id)
	if err != nil {
		return err
	}
	if idx < 0 {
		return fmt.Errorf("backend: no %s with id %v", e.Name, id)
	}
	row := d.tables[e].rows[idx]
	for name, raw := range attrs {
		a := e.Attribute(name)
		if a == nil {
			return fmt.Errorf("backend: entity %s has no attribute %q", e.Name, name)
		}
		if a == e.Key() {
			return fmt.Errorf("backend: cannot change key of %s", e.Name)
		}
		if a.Position() >= len(row) {
			return fmt.Errorf("backend: %s %v predates attribute %q", e.Name, id, name)
		}
		v, err := Coerce(a, raw)
		if err != nil {
			return err
		}
		row[a.Position()] = v
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
	for _, edge := range e.Edges() {
		if lists := d.adj[edge]; int(idx) < len(lists) {
			for _, to := range lists[idx] {
				d.unlink(edge.Inverse, to, idx)
			}
			lists[idx] = nil
		}
	}
	// Tombstone the row; index positions of other rows stay valid.
	t := d.tables[e]
	k, _ := keyOf(e, id)
	delete(t.byID, k)
	t.rows[idx] = nil
	return nil
}
