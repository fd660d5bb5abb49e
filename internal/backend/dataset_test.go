package backend_test

import (
	"fmt"
	"math/rand"
	"reflect"
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

// checkDatasetAgainstReference drives ops adds, connects (duplicates
// included), disconnects, updates and removes drawn from c into a
// Dataset and the reference model, checking every path of up to three
// edges after every check-th operation and at the end.
func checkDatasetAgainstReference(t *testing.T, c chooser, ops, check int) {
	t.Helper()
	g := refGraph()
	entities := g.Entities()
	var edges []*model.Edge
	for _, e := range entities {
		edges = append(edges, e.Edges()...)
	}
	paths := pathsUpTo(g, 3)
	ds := backend.NewDataset(g)
	ref := &refDataset{rows: map[*model.Entity][]refRow{}, links: map[*model.Edge][][2]int64{}}
	for op := 1; op <= ops; op++ {
		switch choice := c.Intn(12); {
		case choice < 3:
			e := entities[c.Intn(len(entities))]
			id := int64(c.Intn(8))
			attrs := map[string]backend.Value{e.Key().Name: id, "N": int64(c.Intn(5))}
			if c.Intn(2) == 0 {
				attrs["S"] = string(rune('a' + c.Intn(4)))
			}
			err := ds.AddEntity(e, attrs)
			if dup := ref.find(e, id) >= 0; dup != (err != nil) {
				t.Fatalf("op %d: add %s %d: err %v, duplicate %v", op, e.Name, id, err, dup)
			}
			if err == nil {
				row := refRow{id, map[string]backend.Value{}}
				for _, a := range e.Attributes() {
					row.attrs[a.QualifiedName()] = backend.ZeroValue(a.Type)
					if v, ok := attrs[a.Name]; ok {
						row.attrs[a.QualifiedName()] = v
					}
				}
				ref.rows[e] = append(ref.rows[e], row)
			}
		case choice < 7: // connect, or connect a linked pair again
			edge := edges[c.Intn(len(edges))]
			from, to := int64(c.Intn(8)), int64(c.Intn(8))
			if pairs := ref.links[edge]; choice == 6 && len(pairs) > 0 {
				p := pairs[c.Intn(len(pairs))]
				from, to = p[0], p[1]
			}
			err := ds.Connect(edge, from, to)
			if exist := ref.find(edge.From, from) >= 0 && ref.find(edge.To, to) >= 0; exist != (err == nil) {
				t.Fatalf("op %d: connect %s %d %d: err %v, endpoints exist %v", op, edge.Name, from, to, err, exist)
			}
			if err == nil {
				ref.links[edge] = append(ref.links[edge], [2]int64{from, to})
				ref.links[edge.Inverse] = append(ref.links[edge.Inverse], [2]int64{to, from})
			}
		case choice < 9: // disconnect a linked pair, or a drawn one
			edge := edges[c.Intn(len(edges))]
			from, to := int64(c.Intn(8)), int64(c.Intn(8))
			if pairs := ref.links[edge]; choice == 7 && len(pairs) > 0 {
				p := pairs[c.Intn(len(pairs))]
				from, to = p[0], p[1]
			}
			if err := ds.Disconnect(edge, from, to); err != nil {
				t.Fatalf("op %d: disconnect: %v", op, err)
			}
			ref.unlink(edge, from, to)
			ref.unlink(edge.Inverse, to, from)
		case choice < 10:
			e := entities[c.Intn(len(entities))]
			id := int64(c.Intn(8))
			n := int64(c.Intn(5))
			err := ds.UpdateEntity(e, id, map[string]backend.Value{"N": n})
			i := ref.find(e, id)
			if (i >= 0) != (err == nil) {
				t.Fatalf("op %d: update %s %d: err %v", op, e.Name, id, err)
			}
			if i >= 0 {
				ref.rows[e][i].attrs[e.Attribute("N").QualifiedName()] = n
			}
		default:
			e := entities[c.Intn(len(entities))]
			id := int64(c.Intn(8))
			err := ds.RemoveEntity(e, id)
			i := ref.find(e, id)
			if (i >= 0) != (err == nil) {
				t.Fatalf("op %d: remove %s %d: err %v", op, e.Name, id, err)
			}
			if i >= 0 {
				ref.rows[e] = append(ref.rows[e][:i:i], ref.rows[e][i+1:]...)
				for _, edge := range edges {
					var kept [][2]int64
					for _, p := range ref.links[edge] {
						if !(edge.From == e && p[0] == id) && !(edge.To == e && p[1] == id) {
							kept = append(kept, p)
						}
					}
					ref.links[edge] = kept
				}
			}
		}
		if op%check == 0 {
			for _, path := range paths {
				checkPath(t, ds, ref, path, op)
			}
		}
	}
	for _, path := range paths {
		checkPath(t, ds, ref, path, ops)
	}
}

// checkPath requires a path's combinations, each one's Value for every
// attribute on the path, and the records of a family over the path to
// equal the reference enumeration, in order.
func checkPath(t *testing.T, ds *backend.Dataset, ref *refDataset, path model.Path, op int) {
	t.Helper()
	want := ref.combinations(path)
	var got []map[string]backend.Value
	err := ds.ForEachCombination(path, func(c *backend.Combination) error {
		tuple := c.Tuple()
		for _, e := range path.Entities() {
			for _, a := range e.Attributes() {
				if v, ok := c.Value(a); !ok || v != tuple[a.QualifiedName()] {
					return fmt.Errorf("Value(%s) = %v, %v; the tuple holds %v", a.QualifiedName(), v, ok, tuple[a.QualifiedName()])
				}
			}
		}
		got = append(got, tuple)
		return nil
	})
	if err != nil {
		t.Fatalf("op %d: path %v: %v", op, path, err)
	}
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("op %d: path %v: combinations\n got %v\nwant %v", op, path, got, want)
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
	i := 0
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
