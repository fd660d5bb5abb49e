package model

import (
	"fmt"
)

// Entity is one entity set (a box in the entity graph). Entities own
// attributes and named outgoing relationship edges.
type Entity struct {
	// Name identifies the entity set within its graph.
	Name string
	// Count is the expected number of entity instances; it drives all
	// cardinality and size estimation.
	Count int

	key       *Attribute
	attrs     map[string]*Attribute
	attrOrder []string
	edges     map[string]*Edge
	edgeOrder []string
}

// NewEntity creates an entity set with the given name, instance count,
// and an implicit key attribute named keyName (e.g. "HotelID").
func NewEntity(name, keyName string, count int) *Entity {
	e := &Entity{
		Name:  name,
		Count: count,
		attrs: make(map[string]*Attribute),
		edges: make(map[string]*Edge),
	}
	key := &Attribute{Entity: e, Name: keyName, Type: IDType, qualified: name + "." + keyName}
	e.key = key
	e.attrs[keyName] = key
	e.attrOrder = append(e.attrOrder, keyName)
	return e
}

// Key returns the entity's key attribute.
func (e *Entity) Key() *Attribute { return e.key }

// AddAttribute defines a new attribute on the entity and returns it.
// It panics if the name is already taken; model construction errors are
// programming errors, not runtime conditions.
func (e *Entity) AddAttribute(name string, typ AttributeType) *Attribute {
	if _, ok := e.attrs[name]; ok {
		panic(fmt.Sprintf("model: duplicate attribute %s.%s", e.Name, name))
	}
	a := &Attribute{Entity: e, Name: name, Type: typ, qualified: e.Name + "." + name}
	e.attrs[name] = a
	e.attrOrder = append(e.attrOrder, name)
	return a
}

// AddAttributeCard defines a new attribute with an explicit distinct
// value count, used for selectivity estimation.
func (e *Entity) AddAttributeCard(name string, typ AttributeType, cardinality int) *Attribute {
	a := e.AddAttribute(name, typ)
	a.Cardinality = cardinality
	return a
}

// Attribute returns the named attribute, or nil if it does not exist.
func (e *Entity) Attribute(name string) *Attribute { return e.attrs[name] }

// Attributes returns the entity's attributes in definition order, the
// key attribute first.
func (e *Entity) Attributes() []*Attribute {
	out := make([]*Attribute, 0, len(e.attrOrder))
	for _, n := range e.attrOrder {
		out = append(out, e.attrs[n])
	}
	return out
}

// NonKeyAttributes returns all attributes except the key, in definition
// order.
func (e *Entity) NonKeyAttributes() []*Attribute {
	out := make([]*Attribute, 0, len(e.attrOrder)-1)
	for _, n := range e.attrOrder {
		if a := e.attrs[n]; a != e.key {
			out = append(out, a)
		}
	}
	return out
}

// Edge returns the named outgoing relationship edge, or nil.
func (e *Entity) Edge(name string) *Edge { return e.edges[name] }

// Edges returns the outgoing relationship edges in definition order.
func (e *Entity) Edges() []*Edge {
	out := make([]*Edge, 0, len(e.edgeOrder))
	for _, n := range e.edgeOrder {
		out = append(out, e.edges[n])
	}
	return out
}

func (e *Entity) addEdge(ed *Edge) error {
	if _, ok := e.attrs[ed.Name]; ok {
		return fmt.Errorf("model: relationship %s.%s collides with an attribute", e.Name, ed.Name)
	}
	if _, ok := e.edges[ed.Name]; ok {
		return fmt.Errorf("model: duplicate relationship %s.%s", e.Name, ed.Name)
	}
	e.edges[ed.Name] = ed
	e.edgeOrder = append(e.edgeOrder, ed.Name)
	return nil
}
