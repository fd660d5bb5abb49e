// Package schema defines extensible record store schemas: column family
// (index) definitions in the paper's triple notation
// [partition key][clustering key][values], each anchored to a path
// through the entity graph, plus the statistics (entries, partitions,
// size) the cost model and optimizer need.
package schema

import (
	"fmt"
	"slices"
	"strings"

	"nose/internal/model"
)

// Index is one column family definition (paper §III-C): a mapping
//
//	K -> (C -> V)
//
// from a partition key to clustering keys to values, where K, C and V
// are composed of conceptual-model attributes, plus the relationship
// path linking the entities the attributes come from.
type Index struct {
	// Name is a short generated identifier (e.g. "cf12") assigned when
	// the index joins a schema or candidate pool. Candidate enumeration
	// shares one unnamed instance per structure between its workers and
	// names it only at that point, on one goroutine.
	Name string
	// Path is the entity-graph path linking the index's entities.
	Path model.Path
	// Partition lists the partition key attributes. A get request must
	// supply all of them.
	Partition []*model.Attribute
	// Clustering lists the clustering key attributes in order; records
	// within a partition are sorted by them.
	Clustering []*model.Attribute
	// Values lists the non-key attributes stored in each cell.
	Values []*model.Attribute

	id string
}

// New constructs an index, canonicalizing the partition and value
// attribute order (both are sets; clustering order is significant). The
// identity string is computed here, so an index built by New is
// read-only under ID and may be shared between goroutines.
func New(path model.Path, partition, clustering, values []*model.Attribute) *Index {
	// One array holds all three lists, each capped at its length.
	attrs := make([]*model.Attribute, 0, len(partition)+len(clustering)+len(values))
	cut := func(list []*model.Attribute) []*model.Attribute {
		if len(list) == 0 {
			return nil
		}
		attrs = append(attrs, list...)
		return attrs[len(attrs)-len(list) : len(attrs) : len(attrs)]
	}
	idx := &Index{
		Path:       path,
		Partition:  cut(partition),
		Clustering: cut(clustering),
		Values:     cut(values),
	}
	sortAttrs(idx.Partition)
	sortAttrs(idx.Values)
	idx.id = idx.identity()
	return idx
}

func sortAttrs(attrs []*model.Attribute) {
	slices.SortFunc(attrs, func(a, b *model.Attribute) int {
		return strings.Compare(a.QualifiedName(), b.QualifiedName())
	})
}

// ID returns a canonical identity string: two indexes with the same
// path, partition key, clustering key and values have equal IDs. Only
// an index assembled as a literal computes it here, on first use.
func (x *Index) ID() string {
	if x.id == "" {
		x.id = x.identity()
	}
	return x.id
}

func (x *Index) identity() string {
	var buf [256]byte
	return string(appendIdentity(buf[:0], x.Path, x.Partition, x.Clustering, x.Values))
}

// AppendID appends to b the ID that New(path, partition, clustering,
// values) would give its index, without building the index, so a
// caller can look a structure up before constructing a twin. Like New
// it orders partition and values canonically, but in place: pass slices
// the caller owns.
func AppendID(b []byte, path model.Path, partition, clustering, values []*model.Attribute) []byte {
	sortAttrs(partition)
	sortAttrs(values)
	return appendIdentity(b, path, partition, clustering, values)
}

func appendIdentity(b []byte, path model.Path, partition, clustering, values []*model.Attribute) []byte {
	b = path.AppendTo(b)
	b = appendAttrList(b, partition)
	b = appendAttrList(b, clustering)
	return appendAttrList(b, values)
}

func appendAttrList(b []byte, attrs []*model.Attribute) []byte {
	b = append(b, '[')
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, a.QualifiedName()...)
	}
	return append(b, ']')
}

// String renders the index in the paper's triple notation, e.g.
// "[Hotel.HotelCity][Room.RoomRate, Guest.GuestID][Guest.GuestName]".
func (x *Index) String() string {
	var buf [256]byte
	b := appendAttrList(buf[:0], x.Partition)
	b = appendAttrList(b, x.Clustering)
	return string(appendAttrList(b, x.Values))
}

// KeyAttributes returns the partition then clustering attributes; these
// constitute the record's primary key.
func (x *Index) KeyAttributes() []*model.Attribute {
	out := make([]*model.Attribute, 0, len(x.Partition)+len(x.Clustering))
	out = append(out, x.Partition...)
	out = append(out, x.Clustering...)
	return out
}

// AllAttributes returns every attribute stored by the index, keys first.
func (x *Index) AllAttributes() []*model.Attribute {
	return append(x.KeyAttributes(), x.Values...)
}

// Contains reports whether the index stores the attribute anywhere.
// Plan generation calls it once per (candidate, needed attribute), so
// it walks the three components in place rather than through
// AllAttributes.
func (x *Index) Contains(a *model.Attribute) bool {
	return slices.Contains(x.Partition, a) || slices.Contains(x.Clustering, a) || slices.Contains(x.Values, a)
}

// ContainsAll reports whether the index stores every given attribute.
func (x *Index) ContainsAll(attrs []*model.Attribute) bool {
	for _, a := range attrs {
		if !x.Contains(a) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: at least one partition
// attribute, no attribute in more than one component, and every
// attribute's entity on the path.
func (x *Index) Validate() error {
	if len(x.Partition) == 0 {
		return fmt.Errorf("schema: index %s has an empty partition key", x)
	}
	lists := [...][]*model.Attribute{x.Partition, x.Clustering, x.Values}
	for l, attrs := range lists {
		for i, a := range attrs {
			repeated := slices.Contains(attrs[:i], a)
			for _, earlier := range lists[:l] {
				repeated = repeated || slices.Contains(earlier, a)
			}
			if repeated {
				return fmt.Errorf("schema: index %s repeats attribute %s", x, a.QualifiedName())
			}
			if !x.Path.Contains(a.Entity) {
				return fmt.Errorf("schema: index %s stores attribute %s whose entity is off the path %s",
					x, a.QualifiedName(), x.Path)
			}
		}
	}
	return nil
}
