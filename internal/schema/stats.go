package schema

import "nose/internal/model"

// Records estimates the number of full-path attribute combinations the
// index materializes: one record per distinct combination of entities
// along the path. This is the number of (partition key, clustering key)
// cells when the clustering key makes each combination unique, which
// the enumerator guarantees by including path entity ids.
func (x *Index) Records() float64 {
	n := float64(x.Path.Start.Count)
	for _, ed := range x.Path.Edges {
		n *= ed.AvgDegree()
	}
	if n < 1 {
		return 1
	}
	return n
}

// RowSize returns the storage footprint in bytes of one record: the sum
// of all attribute sizes. Plan generation compares row sizes once per
// pair of interchangeable lookups, so like Contains it walks the three
// components in place.
func (x *Index) RowSize() float64 {
	total := 0
	for _, attrs := range [3][]*model.Attribute{x.Partition, x.Clustering, x.Values} {
		for _, a := range attrs {
			total += a.StorageSize()
		}
	}
	return float64(total)
}

// SizeBytes estimates the total storage footprint of the index.
func (x *Index) SizeBytes() float64 {
	return x.Records() * x.RowSize()
}

// EntityFanout estimates the number of index records that reference one
// particular instance of the given entity, which must lie on the index
// path. Updates to one entity instance must rewrite this many records
// (paper §VI: denormalization multiplies update cost).
func (x *Index) EntityFanout(e *model.Entity) float64 {
	idx := x.Path.IndexOf(e)
	if idx < 0 {
		return 0
	}
	if e.Count <= 0 {
		return 1
	}
	f := x.Records() / float64(e.Count)
	if f < 1 {
		return 1
	}
	return f
}
