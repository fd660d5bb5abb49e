package model

import "fmt"

// Degree is the cardinality of one direction of a relationship: how many
// target entities are associated with each source entity.
type Degree int

const (
	// One means each source entity relates to at most one target.
	One Degree = iota
	// Many means each source entity may relate to many targets.
	Many
)

// String returns "one" or "many".
func (d Degree) String() string {
	if d == One {
		return "one"
	}
	return "many"
}

// Edge is one direction of a relationship between two entity sets. Every
// relationship contributes two edges, each navigable by name from its
// source entity; Inverse links them.
type Edge struct {
	// Name is the navigation name on the source entity, e.g. the edge
	// Hotel→Room might be named "Rooms" while its inverse Room→Hotel is
	// named "Hotel".
	Name string
	// From and To are the source and target entity sets.
	From, To *Entity
	// Card is the degree of this direction: One if each From entity has
	// at most one To entity, Many otherwise.
	Card Degree
	// Inverse is the opposite direction of the same relationship.
	Inverse *Edge
}

// AvgDegree estimates the average number of To entities associated with
// each From entity. One edges have degree 1; Many edges have the
// ratio of entity counts, floored at 1.
func (ed *Edge) AvgDegree() float64 {
	if ed.Card == One {
		return 1
	}
	if ed.From.Count <= 0 {
		return 1
	}
	d := float64(ed.To.Count) / float64(ed.From.Count)
	if d < 1 {
		return 1
	}
	return d
}

// String renders the edge as "From.Name->To".
func (ed *Edge) String() string {
	return fmt.Sprintf("%s.%s->%s", ed.From.Name, ed.Name, ed.To.Name)
}

// RelationshipKind names the three relationship shapes of the entity
// graph model.
type RelationshipKind int

const (
	// OneToOne relates each source to at most one target and vice versa.
	OneToOne RelationshipKind = iota
	// OneToMany relates each source to many targets, each target to one
	// source (e.g. Hotel to Rooms).
	OneToMany
	// ManyToMany relates both directions with degree many.
	ManyToMany
)

// String returns the DSL spelling of the kind.
func (k RelationshipKind) String() string {
	switch k {
	case OneToOne:
		return "one-to-one"
	case OneToMany:
		return "one-to-many"
	case ManyToMany:
		return "many-to-many"
	default:
		return fmt.Sprintf("RelationshipKind(%d)", int(k))
	}
}

// ParseRelationshipKind converts a DSL spelling to a RelationshipKind.
func ParseRelationshipKind(s string) (RelationshipKind, error) {
	switch s {
	case "one-to-one", "one_to_one":
		return OneToOne, nil
	case "one-to-many", "one_to_many":
		return OneToMany, nil
	case "many-to-many", "many_to_many":
		return ManyToMany, nil
	default:
		return 0, fmt.Errorf("model: unknown relationship kind %q", s)
	}
}

func (k RelationshipKind) degrees() (forward, backward Degree) {
	switch k {
	case OneToOne:
		return One, One
	case OneToMany:
		return Many, One
	default:
		return Many, Many
	}
}
