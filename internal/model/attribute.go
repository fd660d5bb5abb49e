// Package model implements the conceptual data model used by NoSE: an
// entity graph in which boxes are entity sets with typed attributes and
// edges are named, directed relationships with cardinalities.
//
// The entity graph is a restricted entity-relationship model (paper
// §III-A): every entity set has exactly one key attribute, relationships
// are binary, and queries traverse simple paths through the graph.
package model

import (
	"fmt"
	"slices"
)

// AttributeType enumerates the value domains an attribute may have.
// Types matter for two things: default storage sizes used by the schema
// size estimator, and whether range (inequality) predicates are
// meaningful for the attribute.
type AttributeType int

const (
	// IDType is the surrogate key type. Every entity has exactly one
	// attribute of this type, created implicitly by NewEntity.
	IDType AttributeType = iota
	// IntegerType is a 64-bit integer attribute.
	IntegerType
	// FloatType is a 64-bit floating point attribute.
	FloatType
	// StringType is a variable-length string attribute.
	StringType
	// DateType is a timestamp attribute.
	DateType
	// BooleanType is a true/false attribute.
	BooleanType
)

// String returns the lowercase DSL name of the type.
func (t AttributeType) String() string {
	switch t {
	case IDType:
		return "id"
	case IntegerType:
		return "integer"
	case FloatType:
		return "float"
	case StringType:
		return "string"
	case DateType:
		return "date"
	case BooleanType:
		return "boolean"
	default:
		return fmt.Sprintf("AttributeType(%d)", int(t))
	}
}

// ParseAttributeType converts a DSL type name to an AttributeType.
func ParseAttributeType(s string) (AttributeType, error) {
	switch s {
	case "id":
		return IDType, nil
	case "integer", "int":
		return IntegerType, nil
	case "float":
		return FloatType, nil
	case "string":
		return StringType, nil
	case "date":
		return DateType, nil
	case "boolean", "bool":
		return BooleanType, nil
	default:
		return 0, fmt.Errorf("model: unknown attribute type %q", s)
	}
}

// DefaultSize returns the default storage footprint in bytes for a value
// of this type. The schema size estimator uses these when the attribute
// does not override its size.
func (t AttributeType) DefaultSize() int {
	switch t {
	case StringType:
		return 32
	case BooleanType:
		return 1
	default:
		return 8
	}
}

// Ordered reports whether values of this type have a meaningful total
// order, i.e. whether range predicates and ORDER BY clauses may use the
// attribute.
func (t AttributeType) Ordered() bool {
	return t != BooleanType
}

// Attribute describes one attribute of an entity set.
type Attribute struct {
	// Entity is the entity set the attribute belongs to.
	Entity *Entity
	// Name is the attribute name, unique within its entity.
	Name string
	// Type is the attribute's value domain.
	Type AttributeType
	// Size is the storage footprint of one value in bytes. Zero means
	// Type.DefaultSize().
	Size int
	// Cardinality is the number of distinct values the attribute takes
	// across the whole entity set. Zero means "as many as there are
	// entities" (the attribute is treated as unique), which is always
	// the case for the key attribute. Low-cardinality attributes such
	// as a city name should set this explicitly: the cost model derives
	// equality-predicate selectivity as 1/Cardinality.
	Cardinality int

	// qualified caches QualifiedName for attributes an entity created;
	// a hand-built literal leaves it empty.
	qualified string
	// position caches Position plus one for attributes an entity
	// created; a hand-built literal leaves it zero.
	position int
}

// QualifiedName returns "Entity.Attribute", the form used in statements
// and in column family descriptions.
func (a *Attribute) QualifiedName() string {
	if a.qualified != "" {
		return a.qualified
	}
	return a.Entity.Name + "." + a.Name
}

// Position returns the attribute's index in its entity's definition
// order (Entity.Attributes): 0 for the key. An attribute its entity
// does not define has position -1.
func (a *Attribute) Position() int {
	if a.position > 0 {
		return a.position - 1
	}
	return slices.Index(a.Entity.attrOrder, a.Name)
}

// StorageSize returns the storage footprint of one value in bytes.
func (a *Attribute) StorageSize() int {
	if a.Size > 0 {
		return a.Size
	}
	return a.Type.DefaultSize()
}

// DistinctValues returns the number of distinct values the attribute
// takes, defaulting to the entity count when unset.
func (a *Attribute) DistinctValues() int {
	if a.Cardinality > 0 {
		if a.Cardinality > a.Entity.Count {
			return a.Entity.Count
		}
		return a.Cardinality
	}
	return a.Entity.Count
}

// Selectivity returns the fraction of entities matched by an equality
// predicate on this attribute, assuming a uniform value distribution.
func (a *Attribute) Selectivity() float64 {
	d := a.DistinctValues()
	if d <= 0 {
		return 1
	}
	return 1 / float64(d)
}

// IsKey reports whether the attribute is its entity's key.
func (a *Attribute) IsKey() bool {
	return a.Entity != nil && a.Entity.Key() == a
}
