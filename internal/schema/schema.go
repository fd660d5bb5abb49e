package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is a set of column family definitions — the advisor's primary
// output (paper §III-D).
type Schema struct {
	indexes []*Index
	byID    map[string]*Index
	byName  map[string]*Index
	counter int
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{byID: map[string]*Index{}, byName: map[string]*Index{}}
}

// Add inserts an index into the schema, assigning it a name of the form
// "cfN" if it has none. Structurally identical indexes are deduplicated;
// Add returns the canonical instance.
func (s *Schema) Add(x *Index) *Index {
	if existing, ok := s.byID[x.ID()]; ok {
		return existing
	}
	if x.Name == "" {
		x.Name = fmt.Sprintf("cf%d", s.counter)
	}
	s.counter++
	if _, taken := s.byName[x.Name]; taken {
		x.Name = fmt.Sprintf("%s_%d", x.Name, s.counter)
	}
	s.indexes = append(s.indexes, x)
	s.byID[x.ID()] = x
	s.byName[x.Name] = x
	return s.byID[x.ID()]
}

// Indexes returns the schema's column families in insertion order.
func (s *Schema) Indexes() []*Index { return s.indexes }

// Len returns the number of column families.
func (s *Schema) Len() int { return len(s.indexes) }

// Lookup returns the schema's instance of a structurally identical
// index, or nil.
func (s *Schema) Lookup(x *Index) *Index { return s.byID[x.ID()] }

// AlignTo renames this schema's indexes so they can be installed next
// to prev's. Index names are assigned per advise run ("cfN" in pool
// order), so two independent runs reuse the same names for structurally
// different indexes; migrating one schema onto a system serving the
// other would then write rows of the wrong shape into an installed
// family. AlignTo restores the invariant that a name means one
// structure: indexes with a structural twin in prev adopt the twin's
// installed name, and fresh indexes whose names are already taken by a
// different structure in prev are renamed with a deterministic "_mN"
// suffix. Renaming mutates the Index objects in place, so every plan
// referencing them stays consistent.
func (s *Schema) AlignTo(prev *Schema) {
	taken := make(map[string]bool, len(prev.indexes))
	for _, x := range prev.indexes {
		taken[x.Name] = true
	}
	used := make(map[string]bool, len(s.indexes))
	for _, x := range s.indexes {
		if p := prev.byID[x.ID()]; p != nil {
			x.Name = p.Name
			used[x.Name] = true
		}
	}
	for _, x := range s.indexes {
		if prev.byID[x.ID()] != nil {
			continue
		}
		base := x.Name
		for n := 2; taken[x.Name] || used[x.Name]; n++ {
			x.Name = fmt.Sprintf("%s_m%d", base, n)
		}
		used[x.Name] = true
	}
	s.byName = make(map[string]*Index, len(s.indexes))
	for _, x := range s.indexes {
		s.byName[x.Name] = x
	}
}

// TotalSizeBytes estimates the aggregate storage footprint.
func (s *Schema) TotalSizeBytes() float64 {
	total := 0.0
	for _, x := range s.indexes {
		total += x.SizeBytes()
	}
	return total
}

// String renders one column family per line, sorted by name, in the
// triple notation.
func (s *Schema) String() string {
	sorted := append([]*Index(nil), s.indexes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for _, x := range sorted {
		fmt.Fprintf(&b, "%s: %s (path %s)\n", x.Name, x, x.Path)
	}
	return b.String()
}
