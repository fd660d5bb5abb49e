package model

import (
	"fmt"
)

// Graph is an entity graph: a set of entity sets plus the relationships
// between them. It is the conceptual model the advisor consumes.
type Graph struct {
	entities map[string]*Entity
	order    []string
}

// NewGraph returns an empty entity graph.
func NewGraph() *Graph {
	return &Graph{entities: make(map[string]*Entity)}
}

// AddEntity creates an entity set in the graph and returns it. It panics
// on duplicate names; model construction errors are programming errors.
func (g *Graph) AddEntity(name, keyName string, count int) *Entity {
	if _, ok := g.entities[name]; ok {
		panic(fmt.Sprintf("model: duplicate entity %q", name))
	}
	e := NewEntity(name, keyName, count)
	g.entities[name] = e
	g.order = append(g.order, name)
	return e
}

// Entity returns the named entity set, or nil.
func (g *Graph) Entity(name string) *Entity { return g.entities[name] }

// MustEntity returns the named entity set, panicking if absent.
func (g *Graph) MustEntity(name string) *Entity {
	e := g.entities[name]
	if e == nil {
		panic(fmt.Sprintf("model: no entity %q", name))
	}
	return e
}

// Entities returns the entity sets in definition order.
func (g *Graph) Entities() []*Entity {
	out := make([]*Entity, 0, len(g.order))
	for _, n := range g.order {
		out = append(out, g.entities[n])
	}
	return out
}

// AddRelationship creates a relationship of the given kind between two
// entities. forwardName navigates from→to and inverseName navigates
// to→from; both become edges on their source entities. It returns the
// forward edge.
func (g *Graph) AddRelationship(from, forwardName, to, inverseName string, kind RelationshipKind) (*Edge, error) {
	fe := g.entities[from]
	if fe == nil {
		return nil, fmt.Errorf("model: no entity %q", from)
	}
	te := g.entities[to]
	if te == nil {
		return nil, fmt.Errorf("model: no entity %q", to)
	}
	fd, bd := kind.degrees()
	forward := &Edge{Name: forwardName, From: fe, To: te, Card: fd}
	backward := &Edge{Name: inverseName, From: te, To: fe, Card: bd}
	forward.Inverse = backward
	backward.Inverse = forward
	if err := fe.addEdge(forward); err != nil {
		return nil, err
	}
	if err := te.addEdge(backward); err != nil {
		return nil, err
	}
	return forward, nil
}

// MustAddRelationship is AddRelationship that panics on error, for use
// in statically-known model construction.
func (g *Graph) MustAddRelationship(from, forwardName, to, inverseName string, kind RelationshipKind) *Edge {
	ed, err := g.AddRelationship(from, forwardName, to, inverseName, kind)
	if err != nil {
		panic(err)
	}
	return ed
}

// ResolvePath resolves a sequence of names where the first names an
// entity and each subsequent name is a relationship edge from the
// current entity.
func (g *Graph) ResolvePath(parts []string) (Path, error) {
	if len(parts) == 0 {
		return Path{}, fmt.Errorf("model: empty path")
	}
	start := g.entities[parts[0]]
	if start == nil {
		return Path{}, fmt.Errorf("model: no entity %q", parts[0])
	}
	p := Path{Start: start}
	cur := start
	for _, name := range parts[1:] {
		ed := cur.Edge(name)
		if ed == nil {
			return Path{}, fmt.Errorf("model: entity %s has no relationship %q", cur.Name, name)
		}
		p.Edges = append(p.Edges, ed)
		cur = ed.To
	}
	return p, nil
}

// Validate checks structural invariants of the graph: every edge has a
// consistent inverse and every entity has a positive count.
func (g *Graph) Validate() error {
	for _, name := range g.order {
		e := g.entities[name]
		if e.Count <= 0 {
			return fmt.Errorf("model: entity %s has non-positive count %d", e.Name, e.Count)
		}
		for _, ed := range e.Edges() {
			if ed.Inverse == nil {
				return fmt.Errorf("model: edge %s has no inverse", ed)
			}
			if ed.Inverse.Inverse != ed {
				return fmt.Errorf("model: edge %s has inconsistent inverse", ed)
			}
			if ed.From != e {
				return fmt.Errorf("model: edge %s registered on wrong entity %s", ed, e.Name)
			}
			if g.entities[ed.To.Name] != ed.To {
				return fmt.Errorf("model: edge %s points outside the graph", ed)
			}
		}
	}
	return nil
}
