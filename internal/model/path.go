package model

import "strings"

// Path is a traversal through the entity graph: a start entity followed
// by zero or more relationship edges. Queries and column families are
// both anchored to paths (paper §III-B, §IV-A).
type Path struct {
	// Start is the entity the path begins at.
	Start *Entity
	// Edges are the relationship edges traversed, in order.
	Edges []*Edge
}

// NewPath returns a zero-edge path anchored at the given entity.
func NewPath(start *Entity) Path { return Path{Start: start} }

// Len returns the number of entities on the path (edges + 1).
func (p Path) Len() int { return len(p.Edges) + 1 }

// End returns the final entity on the path.
func (p Path) End() *Entity {
	if len(p.Edges) == 0 {
		return p.Start
	}
	return p.Edges[len(p.Edges)-1].To
}

// EntityAt returns the i-th entity on the path; index 0 is Start.
func (p Path) EntityAt(i int) *Entity {
	if i == 0 {
		return p.Start
	}
	return p.Edges[i-1].To
}

// Entities returns every entity along the path in traversal order.
func (p Path) Entities() []*Entity {
	out := make([]*Entity, 0, p.Len())
	out = append(out, p.Start)
	for _, ed := range p.Edges {
		out = append(out, ed.To)
	}
	return out
}

// Contains reports whether the entity appears anywhere on the path.
func (p Path) Contains(e *Entity) bool {
	if p.Start == e {
		return true
	}
	for _, ed := range p.Edges {
		if ed.To == e {
			return true
		}
	}
	return false
}

// IndexOf returns the position of the entity on the path, or -1.
func (p Path) IndexOf(e *Entity) int {
	if p.Start == e {
		return 0
	}
	for i, ed := range p.Edges {
		if ed.To == e {
			return i + 1
		}
	}
	return -1
}

// SuffixFrom returns the sub-path starting at entity index i and running
// to the end of the path.
func (p Path) SuffixFrom(i int) Path {
	return Path{Start: p.EntityAt(i), Edges: append([]*Edge(nil), p.Edges[i:]...)}
}

// Reverse returns the path traversed in the opposite direction, using
// each edge's inverse.
func (p Path) Reverse() Path {
	rev := Path{Start: p.End()}
	for i := len(p.Edges) - 1; i >= 0; i-- {
		rev.Edges = append(rev.Edges, p.Edges[i].Inverse)
	}
	return rev
}

// Append returns a new path extended by one edge, which must leave the
// current end entity.
func (p Path) Append(ed *Edge) Path {
	edges := make([]*Edge, 0, len(p.Edges)+1)
	edges = append(edges, p.Edges...)
	edges = append(edges, ed)
	return Path{Start: p.Start, Edges: edges}
}

// String renders the path as "Start.edge1.edge2…".
func (p Path) String() string {
	var b strings.Builder
	b.WriteString(p.Start.Name)
	for _, ed := range p.Edges {
		b.WriteByte('.')
		b.WriteString(ed.Name)
	}
	return b.String()
}

// AppendTo appends String's rendering of the path to b, for callers
// that build keys in a reusable buffer.
func (p Path) AppendTo(b []byte) []byte {
	b = append(b, p.Start.Name...)
	for _, ed := range p.Edges {
		b = append(b, '.')
		b = append(b, ed.Name...)
	}
	return b
}
