package backend_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nose/internal/backend"
	"nose/internal/model"
	"nose/internal/schema"
)

// refRow is one live instance in the reference dataset.
type refRow struct {
	id    int64
	attrs map[string]backend.Value // qualified name -> value
}

// refDataset is the brute-force model a Dataset is checked against:
// each entity's live rows in insertion order, and each edge's
// (from, to) id pairs in link order.
type refDataset struct {
	rows  map[*model.Entity][]refRow
	links map[*model.Edge][][2]int64
}

func (r *refDataset) find(e *model.Entity, id int64) int {
	for i, row := range r.rows[e] {
		if row.id == id {
			return i
		}
	}
	return -1
}

func (r *refDataset) unlink(edge *model.Edge, from, to int64) {
	pairs := r.links[edge]
	for i, p := range pairs {
		if p == [2]int64{from, to} {
			r.links[edge] = append(pairs[:i:i], pairs[i+1:]...)
			return
		}
	}
}

// combinations is the nested-loop enumeration of a path: every start
// row in order, then for each edge every pair leaving the row before it
// in link order, each complete combination merged in path order.
func (r *refDataset) combinations(path model.Path) []map[string]backend.Value {
	var out []map[string]backend.Value
	var rec func(pos int, chain []refRow)
	rec = func(pos int, chain []refRow) {
		if pos == path.Len() {
			t := map[string]backend.Value{}
			for _, row := range chain {
				for k, v := range row.attrs {
					t[k] = v
				}
			}
			out = append(out, t)
			return
		}
		edge := path.Edges[pos-1]
		for _, p := range r.links[edge] {
			if p[0] != chain[pos-1].id {
				continue
			}
			if i := r.find(edge.To, p[1]); i >= 0 {
				rec(pos+1, append(chain, r.rows[edge.To][i]))
			}
		}
	}
	for _, row := range r.rows[path.Start] {
		rec(1, []refRow{row})
	}
	return out
}

// refGraph is three entities with every kind of edge a walk can take:
// one-to-many, many-to-many, and a self-relationship, so a path can
// hold one entity at several positions.
func refGraph() *model.Graph {
	g := model.NewGraph()
	for _, name := range []string{"A", "B", "C"} {
		e := g.AddEntity(name, name+"ID", 10)
		e.AddAttribute("N", model.IntegerType)
		e.AddAttribute("S", model.StringType)
	}
	g.MustAddRelationship("A", "Bs", "B", "A", model.OneToMany)
	g.MustAddRelationship("B", "Cs", "C", "Bs", model.ManyToMany)
	g.MustAddRelationship("C", "As", "A", "Cs", model.ManyToMany)
	g.MustAddRelationship("A", "Children", "A", "Parent", model.OneToMany)
	return g
}

// pathsUpTo lists every path of at most n edges from every entity.
func pathsUpTo(g *model.Graph, n int) []model.Path {
	var out []model.Path
	var grow func(p model.Path)
	grow = func(p model.Path) {
		out = append(out, p)
		if len(p.Edges) == n {
			return
		}
		for _, edge := range p.End().Edges() {
			grow(p.Append(edge))
		}
	}
	for _, e := range g.Entities() {
		grow(model.NewPath(e))
	}
	return out
}

// mirror applies each operation to a Dataset and to the reference
// model, requiring both to accept or refuse it alike.
type mirror struct {
	t     *testing.T
	ds    *backend.Dataset
	ref   *refDataset
	edges []*model.Edge
}

func newMirror(t *testing.T, g *model.Graph) *mirror {
	m := &mirror{t: t, ds: backend.NewDataset(g), ref: &refDataset{rows: map[*model.Entity][]refRow{}, links: map[*model.Edge][][2]int64{}}}
	for _, e := range g.Entities() {
		m.edges = append(m.edges, e.Edges()...)
	}
	return m
}

func (m *mirror) add(op int, e *model.Entity, attrs map[string]backend.Value) {
	m.t.Helper()
	id := attrs[e.Key().Name].(int64)
	err := m.ds.AddEntity(e, attrs)
	if dup := m.ref.find(e, id) >= 0; dup != (err != nil) {
		m.t.Fatalf("op %d: add %s %d: err %v, duplicate %v", op, e.Name, id, err, dup)
	}
	if err == nil {
		row := refRow{id, map[string]backend.Value{}}
		for _, a := range e.Attributes() {
			row.attrs[a.QualifiedName()] = backend.ZeroValue(a.Type)
			if v, ok := attrs[a.Name]; ok {
				row.attrs[a.QualifiedName()] = v
			}
		}
		m.ref.rows[e] = append(m.ref.rows[e], row)
	}
}

func (m *mirror) connect(op int, edge *model.Edge, from, to int64) {
	m.t.Helper()
	err := m.ds.Connect(edge, from, to)
	if exist := m.ref.find(edge.From, from) >= 0 && m.ref.find(edge.To, to) >= 0; exist != (err == nil) {
		m.t.Fatalf("op %d: connect %s %d %d: err %v, endpoints exist %v", op, edge.Name, from, to, err, exist)
	}
	if err == nil {
		m.ref.links[edge] = append(m.ref.links[edge], [2]int64{from, to})
		m.ref.links[edge.Inverse] = append(m.ref.links[edge.Inverse], [2]int64{to, from})
	}
}

func (m *mirror) disconnect(op int, edge *model.Edge, from, to int64) {
	m.t.Helper()
	if err := m.ds.Disconnect(edge, from, to); err != nil {
		m.t.Fatalf("op %d: disconnect: %v", op, err)
	}
	m.ref.unlink(edge, from, to)
	m.ref.unlink(edge.Inverse, to, from)
}

func (m *mirror) update(op int, e *model.Entity, id int64, attrs map[string]backend.Value) {
	m.t.Helper()
	err := m.ds.UpdateEntity(e, id, attrs)
	i := m.ref.find(e, id)
	if (i >= 0) != (err == nil) {
		m.t.Fatalf("op %d: update %s %d: err %v", op, e.Name, id, err)
	}
	if i >= 0 {
		for name, v := range attrs {
			m.ref.rows[e][i].attrs[e.Attribute(name).QualifiedName()] = v
		}
	}
}

func (m *mirror) remove(op int, e *model.Entity, id int64) {
	m.t.Helper()
	err := m.ds.RemoveEntity(e, id)
	i := m.ref.find(e, id)
	if (i >= 0) != (err == nil) {
		m.t.Fatalf("op %d: remove %s %d: err %v", op, e.Name, id, err)
	}
	if i >= 0 {
		m.ref.rows[e] = append(m.ref.rows[e][:i:i], m.ref.rows[e][i+1:]...)
		for _, edge := range m.edges {
			var kept [][2]int64
			for _, p := range m.ref.links[edge] {
				if !(edge.From == e && p[0] == id) && !(edge.To == e && p[1] == id) {
					kept = append(kept, p)
				}
			}
			m.ref.links[edge] = kept
		}
	}
}

// check requires every path to match the reference (see checkPath).
func (m *mirror) check(op int, paths []model.Path) {
	m.t.Helper()
	for _, path := range paths {
		checkPath(m.t, m.ds, m.ref, path, op)
	}
}

// checkDatasetAgainstReference drives ops adds, connects (duplicates
// included), disconnects, updates and removes drawn from c into a
// Dataset and the reference model, checking every path of up to three
// edges after every check-th operation and at the end.
func checkDatasetAgainstReference(t *testing.T, c chooser, ops, check int) {
	t.Helper()
	g := refGraph()
	entities := g.Entities()
	paths := pathsUpTo(g, 3)
	m := newMirror(t, g)
	for op := 1; op <= ops; op++ {
		switch choice := c.Intn(12); {
		case choice < 3:
			e := entities[c.Intn(len(entities))]
			attrs := map[string]backend.Value{e.Key().Name: int64(c.Intn(8)), "N": int64(c.Intn(5))}
			if c.Intn(2) == 0 {
				attrs["S"] = string(rune('a' + c.Intn(4)))
			}
			m.add(op, e, attrs)
		case choice < 7: // connect, or connect a linked pair again
			edge := m.edges[c.Intn(len(m.edges))]
			from, to := int64(c.Intn(8)), int64(c.Intn(8))
			if pairs := m.ref.links[edge]; choice == 6 && len(pairs) > 0 {
				p := pairs[c.Intn(len(pairs))]
				from, to = p[0], p[1]
			}
			m.connect(op, edge, from, to)
		case choice < 9: // disconnect a linked pair, or a drawn one
			edge := m.edges[c.Intn(len(m.edges))]
			from, to := int64(c.Intn(8)), int64(c.Intn(8))
			if pairs := m.ref.links[edge]; choice == 7 && len(pairs) > 0 {
				p := pairs[c.Intn(len(pairs))]
				from, to = p[0], p[1]
			}
			m.disconnect(op, edge, from, to)
		case choice < 10:
			e := entities[c.Intn(len(entities))]
			m.update(op, e, int64(c.Intn(8)), map[string]backend.Value{"N": int64(c.Intn(5))})
		default:
			e := entities[c.Intn(len(entities))]
			m.remove(op, e, int64(c.Intn(8)))
		}
		if op%check == 0 {
			m.check(op, paths)
		}
	}
	m.check(ops, paths)
}

// checkPath requires a path's combinations to equal the reference
// enumeration, in order: each one's Tuple the reference's merged row,
// its Value for every attribute on the path that row's value, and its
// Value for every attribute of an entity the path never visits absent.
// The records of a family over the path must equal the reference's too.
func checkPath(t *testing.T, ds *backend.Dataset, ref *refDataset, path model.Path, op int) {
	t.Helper()
	want := ref.combinations(path)
	var onPath, offPath []*model.Attribute
	for _, e := range ds.Graph.Entities() {
		if slices.Contains(path.Entities(), e) {
			onPath = append(onPath, e.Attributes()...)
		} else {
			offPath = append(offPath, e.Attributes()...)
		}
	}
	i := 0
	err := ds.ForEachCombination(path, func(c *backend.Combination) error {
		if i >= len(want) {
			return fmt.Errorf("combination %d past the reference's %d", i, len(want))
		}
		if tuple := c.Tuple(); !reflect.DeepEqual(tuple, want[i]) {
			return fmt.Errorf("combination %d: Tuple() = %v, the reference merged %v", i, tuple, want[i])
		}
		for _, a := range onPath {
			if v, ok := c.Value(backend.ColumnOf(path, a)); !ok || v != want[i][a.QualifiedName()] {
				return fmt.Errorf("combination %d: Value(%s) = %v, %v; the reference holds %v", i, a.QualifiedName(), v, ok, want[i][a.QualifiedName()])
			}
		}
		for _, a := range offPath {
			if v, ok := c.Value(backend.ColumnOf(path, a)); ok {
				return fmt.Errorf("combination %d: Value(%s) = %v, but the path never visits %s", i, a.QualifiedName(), v, a.Entity.Name)
			}
		}
		i++
		return nil
	})
	if err == nil && i != len(want) {
		err = fmt.Errorf("%d combinations, want %d", i, len(want))
	}
	if err != nil {
		t.Fatalf("op %d: path %v: %v", op, path, err)
	}

	// A family over the path: the start's key partitions it, every
	// position's key clusters it, and every other attribute is a value.
	var clustering, values []*model.Attribute
	for _, e := range path.Entities() {
		clustering = append(clustering, e.Key())
		values = append(values, e.Attribute("N"), e.Attribute("S"))
	}
	x := schema.New(path, []*model.Attribute{path.Start.Key()}, clustering, values)
	def := backend.DefFromIndex(x)
	cells := func(tuple map[string]backend.Value, cols []string) []backend.Value {
		out := make([]backend.Value, len(cols))
		for i, col := range cols {
			out[i] = tuple[col]
		}
		return out
	}
	i = 0
	err = ds.ForEachRecord(x, func(partition, clustering, values []backend.Value) error {
		if i >= len(want) {
			return fmt.Errorf("record %d past the reference's %d", i, len(want))
		}
		for _, part := range []struct {
			got  []backend.Value
			cols []string
		}{{partition, def.PartitionCols}, {clustering, def.ClusteringCols}, {values, def.ValueCols}} {
			if w := cells(want[i], part.cols); !reflect.DeepEqual(part.got, w) {
				return fmt.Errorf("record %d: %v, want %v", i, part.got, w)
			}
		}
		i++
		return nil
	})
	if err == nil && i != len(want) {
		err = fmt.Errorf("%d records, want %d", i, len(want))
	}
	if err != nil {
		t.Fatalf("op %d: path %v: %v", op, path, err)
	}
}

// TestAccessorsAfterNeighbourWrites updates and removes rows next to
// live ones — in insertion order, so in the same block of cells — and
// requires every path's Tuple, Value and records to match the reference
// after each write: a write lands in its own row's cells only, and a
// tombstone hides its row alone.
func TestAccessorsAfterNeighbourWrites(t *testing.T) {
	g := refGraph()
	a, b := g.MustEntity("A"), g.MustEntity("B")
	paths := pathsUpTo(g, 3)
	m := newMirror(t, g)
	op := 0
	for id := int64(0); id < 5; id++ {
		for _, e := range []*model.Entity{a, b} {
			m.add(op, e, map[string]backend.Value{e.Key().Name: id, "N": id, "S": fmt.Sprint(e.Name, id)})
		}
		m.connect(op, a.Edge("Bs"), id, id)
		if id > 0 {
			m.connect(op, a.Edge("Children"), id-1, id)
		}
	}
	m.check(op, paths)
	for _, write := range []func(){
		func() { m.update(op, a, 2, map[string]backend.Value{"N": int64(9)}) },
		func() { m.remove(op, a, 1) },
		func() { m.update(op, a, 2, map[string]backend.Value{"S": "z"}) },
		func() { m.remove(op, a, 3) },
		func() { m.update(op, b, 2, map[string]backend.Value{"N": int64(7), "S": "y"}) },
		func() { m.remove(op, b, 1) },
		func() { m.remove(op, a, 2) },
	} {
		op++
		write()
		m.check(op, paths)
	}
}

// TestCombinationsMatchReference drives seeded adds, connects, doubled
// connects, disconnects, updates and removes over a three-entity graph
// and requires every path's combinations and records to equal a
// brute-force nested-loop enumeration, order and multiplicity included.
func TestCombinationsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkDatasetAgainstReference(t, rand.New(rand.NewSource(seed)), 400, 25)
	}
}

// FuzzDatasetAgainstReference turns bytes into the operation sequence
// TestCombinationsMatchReference draws from a seed, and checks every
// path against the same reference at the end.
func FuzzDatasetAgainstReference(f *testing.F) {
	for _, seed := range [][]byte{
		{0}, {0, 0, 1, 0, 0, 0, 3, 0, 0, 1, 4, 0, 0, 0}, []byte("index-addressed rows"),
		{0, 0, 2, 1, 0, 1, 1, 3, 4, 0, 1, 2, 6, 0, 11, 0, 1, 9, 3, 0, 5, 1, 7, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChooser(data)
		ops := len(data) / 3
		checkDatasetAgainstReference(t, &c, ops, ops+1)
	})
}

// TestEveryEntryPointTakesAnIntID: an id reaches the dataset as whatever
// integer type the caller holds. Every entry point that takes an id
// coerces it to the key's type as AddEntity stores it, so a plain int
// names the same instance as an int64 at AddEntity, Connect, EntityRow,
// UpdateEntity, Disconnect and RemoveEntity alike; an id that cannot be
// the key is an error (nil at EntityRow), never a panic.
func TestEveryEntryPointTakesAnIntID(t *testing.T) {
	g := refGraph()
	a, b := g.MustEntity("A"), g.MustEntity("B")
	bs := a.Edge("Bs")
	ds := backend.NewDataset(g)
	for _, e := range []*model.Entity{a, b} {
		for id := 1; id <= 2; id++ {
			if err := ds.AddEntity(e, map[string]backend.Value{e.Key().Name: id, "N": id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	must("Connect", ds.Connect(bs, 1, 2))
	must("Connect", ds.Connect(bs, 1, 1))
	if row := ds.EntityRow(a, 1); row == nil || row["A.N"] != int64(1) {
		t.Fatalf("EntityRow(A, int 1) = %v, want the row with A.N = 1", row)
	}
	must("UpdateEntity", ds.UpdateEntity(a, 1, map[string]backend.Value{"N": 7}))
	if row := ds.EntityRow(a, int64(1)); row["A.N"] != int64(7) {
		t.Fatalf("after UpdateEntity(A, int 1): A.N = %v, want 7", row["A.N"])
	}
	must("Disconnect", ds.Disconnect(bs, 1, 2))
	must("RemoveEntity", ds.RemoveEntity(b, 1))
	if ds.EntityRow(b, 1) != nil {
		t.Fatal("EntityRow(B, int 1) found a removed instance")
	}
	// A(1) kept no link: one was disconnected, the other removed with B(1).
	var walked int
	must("ForEachCombination", ds.ForEachCombination(model.NewPath(a).Append(bs), func(*backend.Combination) error {
		walked++
		return nil
	}))
	if walked != 0 {
		t.Fatalf("A.Bs walked %d combinations, want 0", walked)
	}

	if ds.EntityRow(a, "1") != nil {
		t.Error("EntityRow(A, string id) found an instance")
	}
	if err := ds.UpdateEntity(a, "1", nil); err == nil {
		t.Error("UpdateEntity(A, string id) succeeded")
	}
	if err := ds.Disconnect(bs, 1.5, 2); err == nil {
		t.Error("Disconnect with a float id succeeded")
	}
	if err := ds.RemoveEntity(a, "1"); err == nil {
		t.Error("RemoveEntity(A, string id) succeeded")
	}
}
