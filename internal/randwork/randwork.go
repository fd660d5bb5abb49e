// Package randwork generates random conceptual models and workloads
// for advisor-runtime experiments (paper §VII-B): entity graphs from
// the Watts–Strogatz small-world model with randomly directed edges,
// random attributes per entity, and statements defined by random walks
// with three predicates along the statement path. The scale factor
// multiplies the number of entities and statements, reproducing the
// paper Fig. 13 setup.
package randwork

import (
	"fmt"
	"math/rand"

	"nose/internal/model"
	"nose/internal/workload"
)

// Config controls workload generation.
type Config struct {
	// Factor multiplies entity and statement counts (Fig. 13's x-axis).
	Factor int
	// Seed drives all randomness.
	Seed int64
	// BaseEntities is the entity count at factor 1; zero means 8
	// (RUBiS-like, per §VII-B).
	BaseEntities int
	// BaseQueries is the query count at factor 1; zero means 18.
	BaseQueries int
	// BaseUpdates is the update count at factor 1; zero means 7.
	BaseUpdates int
	// RingNeighbors is the Watts–Strogatz ring degree; zero means 4.
	RingNeighbors int
}

// rewire is the Watts–Strogatz rewiring probability.
const rewire = 0.1

func (c Config) withDefaults() Config {
	if c.Factor <= 0 {
		c.Factor = 1
	}
	if c.BaseEntities <= 0 {
		c.BaseEntities = 8
	}
	if c.BaseQueries <= 0 {
		c.BaseQueries = 18
	}
	if c.BaseUpdates <= 0 {
		c.BaseUpdates = 7
	}
	if c.RingNeighbors <= 0 {
		c.RingNeighbors = 4
	}
	return c
}

// Generate builds a random workload with RUBiS-like shape scaled by
// cfg.Factor.
func Generate(cfg Config) (*workload.Workload, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.BaseEntities * cfg.Factor

	g, err := entityGraph(rng, n, cfg.RingNeighbors, rewire)
	if err != nil {
		return nil, err
	}
	w := workload.New(g)

	queries := cfg.BaseQueries * cfg.Factor
	updates := cfg.BaseUpdates * cfg.Factor
	for i := 0; i < queries; i++ {
		q, err := randomQuery(rng, g, fmt.Sprintf("Q%d", i))
		if err != nil {
			return nil, err
		}
		w.Add(q, 0.1+rng.Float64())
	}
	for i := 0; i < updates; i++ {
		u, err := randomUpdate(rng, g, fmt.Sprintf("U%d", i))
		if err != nil {
			return nil, err
		}
		w.Add(u, 0.05+rng.Float64()/2)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

var attrTypes = []model.AttributeType{
	model.IntegerType, model.FloatType, model.StringType, model.DateType,
}

// entityGraph builds the Watts–Strogatz entity graph: a ring of n
// entities each wired to its k nearest neighbors, with each edge
// rewired to a random target with probability beta, then randomly
// directed and turned into a one-to-many relationship.
func entityGraph(rng *rand.Rand, n, k int, beta float64) (*model.Graph, error) {
	g := model.NewGraph()
	for i := 0; i < n; i++ {
		count := 1000 * (1 + rng.Intn(100))
		e := g.AddEntity(fmt.Sprintf("E%d", i), fmt.Sprintf("E%dID", i), count)
		attrs := 2 + rng.Intn(5)
		for a := 0; a < attrs; a++ {
			typ := attrTypes[rng.Intn(len(attrTypes))]
			card := 1 + rng.Intn(count)
			e.AddAttributeCard(fmt.Sprintf("E%dA%d", i, a), typ, card)
		}
	}

	type pair struct{ a, b int }
	seen := map[pair]bool{}
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		from, to := a, b
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		g.MustAddRelationship(
			fmt.Sprintf("E%d", from), fmt.Sprintf("ToE%d", to),
			fmt.Sprintf("E%d", to), fmt.Sprintf("OfE%d", from),
			model.OneToMany)
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			target := (i + j) % n
			if rng.Float64() < beta {
				target = rng.Intn(n)
			}
			addEdge(i, target)
		}
	}
	return g, g.Validate()
}

// randomWalk picks a simple path through the graph (no repeated
// entities, per the statement language's restriction).
func randomWalk(rng *rand.Rand, g *model.Graph, maxLen int) model.Path {
	entities := g.Entities()
	start := entities[rng.Intn(len(entities))]
	path := model.NewPath(start)
	visited := map[*model.Entity]bool{start: true}
	for path.Len() < maxLen {
		var options []*model.Edge
		for _, ed := range path.End().Edges() {
			if !visited[ed.To] {
				options = append(options, ed)
			}
		}
		if len(options) == 0 {
			break
		}
		ed := options[rng.Intn(len(options))]
		path = path.Append(ed)
		visited[ed.To] = true
	}
	return path
}

// randomAttr picks a random (position, attribute) on the path; key
// attributes are excluded unless keys is true.
func randomAttr(rng *rand.Rand, path model.Path, keys bool) workload.AttrRef {
	idx := rng.Intn(path.Len())
	e := path.EntityAt(idx)
	attrs := e.NonKeyAttributes()
	if keys || len(attrs) == 0 {
		attrs = e.Attributes()
	}
	return workload.AttrRef{Index: idx, Attr: attrs[rng.Intn(len(attrs))]}
}

// randomPredicates builds three predicates along the path, the first
// always an equality (so a valid get request can anchor the query).
func randomPredicates(rng *rand.Rand, path model.Path, pcount int) []workload.Predicate {
	var preds []workload.Predicate
	usedAttrs := map[*model.Attribute]bool{}
	for i := 0; i < pcount; i++ {
		ref := randomAttr(rng, path, i == 0)
		if usedAttrs[ref.Attr] {
			continue
		}
		usedAttrs[ref.Attr] = true
		op := workload.Eq
		if i > 0 && ref.Attr.Type.Ordered() && rng.Intn(2) == 0 {
			op = workload.Gt
		}
		preds = append(preds, workload.Predicate{
			Ref:   ref,
			Op:    op,
			Param: fmt.Sprintf("p%d", i),
		})
	}
	return preds
}

func randomQuery(rng *rand.Rand, g *model.Graph, label string) (*workload.Query, error) {
	path := randomWalk(rng, g, 2+rng.Intn(3))
	q := &workload.Query{Label: label, Graph: g, Path: path}
	q.Where = randomPredicates(rng, path, 3)
	selects := 1 + rng.Intn(3)
	seen := map[workload.AttrRef]bool{}
	for i := 0; i < selects; i++ {
		ref := randomAttr(rng, path, false)
		if !seen[ref] {
			seen[ref] = true
			q.Select = append(q.Select, ref)
		}
	}
	if len(q.Select) == 0 {
		q.Select = append(q.Select, workload.AttrRef{Index: 0, Attr: path.Start.Key()})
	}
	return q, q.Validate()
}

func randomUpdate(rng *rand.Rand, g *model.Graph, label string) (workload.Statement, error) {
	path := randomWalk(rng, g, 1+rng.Intn(3))
	target := path.Start
	switch rng.Intn(4) {
	case 0: // insert
		ins := &workload.Insert{
			Label:    label,
			Graph:    g,
			Entity:   target,
			KeyParam: "p0",
		}
		for i, a := range target.NonKeyAttributes() {
			if i >= 2 {
				break
			}
			ins.Set = append(ins.Set, workload.Assignment{Attr: a, Param: fmt.Sprintf("p%d", i+1)})
		}
		if edges := target.Edges(); len(edges) > 0 {
			ed := edges[rng.Intn(len(edges))]
			ins.Connections = append(ins.Connections, workload.Connection{Edge: ed, Param: "pc"})
		}
		return ins, nil
	case 1: // delete by key
		return &workload.Delete{
			Label: label,
			Graph: g,
			Path:  model.NewPath(target),
			Where: []workload.Predicate{{
				Ref:   workload.AttrRef{Index: 0, Attr: target.Key()},
				Op:    workload.Eq,
				Param: "p0",
			}},
		}, nil
	default: // update through a path
		up := &workload.Update{Label: label, Graph: g, Path: path}
		attrs := target.NonKeyAttributes()
		if len(attrs) == 0 {
			attrs = target.Attributes()
		}
		up.Set = append(up.Set, workload.Assignment{Attr: attrs[rng.Intn(len(attrs))], Param: "pv"})
		up.Where = randomPredicates(rng, path, 2)
		return up, nil
	}
}
