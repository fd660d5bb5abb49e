package workload

import (
	"fmt"
	"strings"

	"nose/internal/model"
)

// Assignment sets one attribute of the written entity from a statement
// parameter.
type Assignment struct {
	// Attr is the attribute being written; it always belongs to the
	// statement's target entity.
	Attr *model.Attribute
	// Param is the parameter name supplying the new value.
	Param string
}

// String renders the assignment in source form.
func (a Assignment) String() string {
	return fmt.Sprintf("%s = ?%s", a.Attr.Name, a.Param)
}

// Connection names a relationship instance being created or removed
// together with an Insert: the edge from the inserted entity and the
// parameter carrying the target entity's key.
type Connection struct {
	// Edge is the relationship edge leaving the statement's target
	// entity.
	Edge *model.Edge
	// Param is the parameter carrying the key of the entity at the far
	// end of the edge.
	Param string
}

// String renders the connection as edge(?param).
func (c Connection) String() string {
	return fmt.Sprintf("%s(?%s)", c.Edge.Name, c.Param)
}

// Insert creates a new entity instance, optionally connecting it to
// existing entities (paper §VI-A). The entity's key is always supplied
// as a parameter.
type Insert struct {
	// Label optionally names the statement for reporting.
	Label string
	// Graph is the conceptual model.
	Graph *model.Graph
	// Entity is the entity set receiving the new instance.
	Entity *model.Entity
	// KeyParam is the parameter carrying the new entity's key; the
	// paper assumes the primary key is provided with every insert.
	KeyParam string
	// Set lists non-key attribute assignments.
	Set []Assignment
	// Connections lists relationships created with the insert.
	Connections []Connection
}

func (*Insert) statement() {}

// String renders the insert in the workload language.
func (s *Insert) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INSERT INTO %s SET %s = ?%s", s.Entity.Name, s.Entity.Key().Name, s.KeyParam)
	for _, a := range s.Set {
		fmt.Fprintf(&b, ", %s", a)
	}
	if len(s.Connections) > 0 {
		b.WriteString(" AND CONNECT TO ")
		for i, c := range s.Connections {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Update modifies attributes of existing entity instances selected by
// predicates over a path anchored at the updated entity (paper §VI-A).
type Update struct {
	// Label optionally names the statement for reporting.
	Label string
	// Graph is the conceptual model.
	Graph *model.Graph
	// Path anchors the statement; Path.Start is the updated entity.
	Path model.Path
	// Set lists the attribute assignments applied to matching entities.
	Set []Assignment
	// Where selects the entities to update; predicates lie on Path.
	Where []Predicate
}

func (*Update) statement() {}

// Entity returns the updated entity set.
func (s *Update) Entity() *model.Entity { return s.Path.Start }

// String renders the update in the workload language.
func (s *Update) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "UPDATE %s", s.Entity().Name)
	if len(s.Path.Edges) > 0 {
		fmt.Fprintf(&b, " FROM %s", s.Path)
	}
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	writeWhere(&b, s.Where)
	return b.String()
}

// Delete removes entity instances selected by predicates over a path
// anchored at the deleted entity (paper §VI-A).
type Delete struct {
	// Label optionally names the statement for reporting.
	Label string
	// Graph is the conceptual model.
	Graph *model.Graph
	// Path anchors the statement; Path.Start is the deleted entity.
	Path model.Path
	// Where selects the entities to delete; predicates lie on Path.
	Where []Predicate
}

func (*Delete) statement() {}

// Entity returns the deleted entity set.
func (s *Delete) Entity() *model.Entity { return s.Path.Start }

// String renders the delete in the workload language.
func (s *Delete) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DELETE FROM %s", s.Path)
	writeWhere(&b, s.Where)
	return b.String()
}

// Connect creates one relationship instance between two existing
// entities identified by their keys (paper §VI-A).
type Connect struct {
	// Label optionally names the statement for reporting.
	Label string
	// Graph is the conceptual model.
	Graph *model.Graph
	// Edge is the relationship edge being instantiated; Edge.From is
	// the statement's target entity.
	Edge *model.Edge
	// FromParam carries the key of the Edge.From entity instance.
	FromParam string
	// ToParam carries the key of the Edge.To entity instance.
	ToParam string
	// Disconnect flips the statement's meaning to relationship removal.
	Disconnect bool
}

func (*Connect) statement() {}

// String renders the statement in the workload language.
func (s *Connect) String() string {
	verb, prep := "CONNECT", "TO"
	if s.Disconnect {
		verb, prep = "DISCONNECT", "FROM"
	}
	return fmt.Sprintf("%s %s(?%s) %s %s(?%s)",
		verb, s.Edge.From.Name, s.FromParam, prep, s.Edge.Name, s.ToParam)
}

// WriteStatement is implemented by the four update statement kinds; it
// exposes the entity whose instances the statement writes.
type WriteStatement interface {
	Statement
	// WriteEntity returns the entity set modified by the statement.
	// Nothing calls it: it is kept because it is the method that makes
	// WriteStatement a distinct interface — the type switches and
	// assertions that tell writes from queries rest on it.
	WriteEntity() *model.Entity
}

// WriteEntity returns the inserted entity set.
func (s *Insert) WriteEntity() *model.Entity { return s.Entity }

// WriteEntity returns the updated entity set.
func (s *Update) WriteEntity() *model.Entity { return s.Entity() }

// WriteEntity returns the deleted entity set.
func (s *Delete) WriteEntity() *model.Entity { return s.Entity() }

// WriteEntity returns the edge's source entity set.
func (s *Connect) WriteEntity() *model.Entity { return s.Edge.From }
