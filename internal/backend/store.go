package backend

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"nose/internal/cost"
	"nose/internal/obs"
)

// ColumnFamilyDef defines one column family: the qualified attribute
// names making up its partition key, clustering key and value cells.
type ColumnFamilyDef struct {
	// Name identifies the column family in the store.
	Name string
	// PartitionCols are the partition key attribute names; every get
	// must supply all of them.
	PartitionCols []string
	// ClusteringCols are the clustering key attribute names; records
	// within a partition are ordered by them.
	ClusteringCols []string
	// ValueCols are the value cell names.
	ValueCols []string
}

// columnFamily is the storage for one column family: a hash of
// partitions, each one slice of records sorted by CompareKeys on their
// clustering keys. Partitions are small (at RUBiS scale the median holds
// one record and p99 eight) and most inserts append, so a binary search
// and a copy are all a partition needs (DESIGN.md §5 item 27). A
// partition whose last record is deleted stays in the map, empty, and
// CFStats still counts it.
type columnFamily struct {
	mu    sync.RWMutex
	def   ColumnFamilyDef
	parts map[string]*[]Record
}

// part returns a partition's records, nil when the partition was never
// written; the caller holds cf.mu. The key is encoded into a stack
// buffer, so the probe builds no string.
func (cf *columnFamily) part(partition []Value) *[]Record {
	var buf [keyBufSize]byte
	return cf.parts[string(AppendKey(buf[:0], partition))]
}

// search finds key in a partition's sorted records: its index, or the
// index it would be inserted at, and whether it is present.
func search(recs []Record, key []Value) (int, bool) {
	return slices.BinarySearchFunc(recs, key, func(r Record, key []Value) int {
		return CompareKeys(r.Clustering, key)
	})
}

// Store is the simulated extensible record store.
type Store struct {
	mu  sync.RWMutex
	cfs map[string]*columnFamily
	lat cost.Params
	so  storeObs
}

// storeObs holds the store's registry instruments; the zero value is a
// valid no-op set.
type storeObs struct {
	gets, puts, deletes, recordsRead *obs.Counter
}

// SetObs routes store-level operation counters into a registry:
// store.gets / store.puts / store.deletes count operations served, and
// store.records_read counts the rows returned by gets.
func (s *Store) SetObs(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.so = storeObs{
		gets:        r.Counter("store.gets"),
		puts:        r.Counter("store.puts"),
		deletes:     r.Counter("store.deletes"),
		recordsRead: r.Counter("store.records_read"),
	}
}

// NewStore creates an empty store whose operations are charged service
// time according to the given coefficients (normally the same
// cost.Params the advisor optimized against).
func NewStore(lat cost.Params) *Store {
	return &Store{cfs: map[string]*columnFamily{}, lat: lat}
}

// Create defines a new column family.
func (s *Store) Create(def ColumnFamilyDef) error {
	if len(def.PartitionCols) == 0 {
		return fmt.Errorf("backend: column family %q needs a partition key", def.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cfs[def.Name]; ok {
		return fmt.Errorf("backend: column family %q already exists", def.Name)
	}
	s.cfs[def.Name] = &columnFamily{def: def, parts: map[string]*[]Record{}}
	return nil
}

// Drop removes a column family.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cfs, name)
}

// Def returns a column family's definition.
func (s *Store) Def(name string) (ColumnFamilyDef, error) {
	cf, err := s.cf(name)
	if err != nil {
		return ColumnFamilyDef{}, err
	}
	return cf.def, nil
}

func (s *Store) cf(name string) (*columnFamily, error) {
	s.mu.RLock()
	cf := s.cfs[name]
	s.mu.RUnlock()
	if cf == nil {
		return nil, fmt.Errorf("backend: no column family %q", name)
	}
	return cf, nil
}

// RangeOp is a comparison bounding the first clustering column of a
// get request.
type RangeOp int

const (
	// GT keeps records whose first clustering value is strictly
	// greater.
	GT RangeOp = iota
	// GE keeps records greater or equal.
	GE
	// LT keeps records strictly less.
	LT
	// LE keeps records less or equal.
	LE
)

// ClusterRange is one bound on the first clustering column.
type ClusterRange struct {
	// Op is the comparison.
	Op RangeOp
	// Value is the bound.
	Value Value
}

// GetRequest is one get operation: fetch records of a single partition,
// optionally bounded on the first clustering column and truncated to
// Limit records.
type GetRequest struct {
	// Partition supplies the full partition key.
	Partition []Value
	// Ranges bound the first clustering column (at most one lower and
	// one upper bound).
	Ranges []ClusterRange
	// Limit, when positive, bounds the number of records returned.
	Limit int
}

// Record is one clustering row of a partition.
type Record struct {
	// Clustering is the record's clustering key.
	Clustering []Value
	// Values are the cell values, aligned with the definition's
	// ValueCols.
	Values []Value
}

// GetResult carries a get's records and its simulated service time.
type GetResult struct {
	// Records are the matching rows in clustering order.
	Records []Record
	// SimMillis is the deterministic service time charged.
	SimMillis float64
}

// Get executes one get request against a column family.
func (s *Store) Get(name string, req GetRequest) (*GetResult, error) {
	cf, err := s.cf(name)
	if err != nil {
		return nil, err
	}
	if len(req.Partition) != len(cf.def.PartitionCols) {
		return nil, fmt.Errorf("backend: get on %q supplies %d of %d partition key values",
			name, len(req.Partition), len(cf.def.PartitionCols))
	}
	if len(req.Ranges) > 0 && len(cf.def.ClusteringCols) == 0 {
		return nil, fmt.Errorf("backend: get on %q has a clustering range but the column family has no clustering columns",
			name)
	}
	cf.mu.RLock()
	defer cf.mu.RUnlock()

	res := &GetResult{}
	if part := cf.part(req.Partition); part != nil {
		// Records sort by their first clustering value first, so each
		// range cuts the partition at one binary search, exactly, for any
		// number of clustering columns. GE and LT cut before the records
		// equal to the bound, GT and LE after them.
		recs := *part
		lo, hi := 0, len(recs)
		for _, r := range req.Ranges {
			i := sort.Search(len(recs), func(i int) bool {
				c := CompareValues(recs[i].Clustering[0], r.Value)
				return c > 0 || c == 0 && (r.Op == GE || r.Op == LT)
			})
			if r.Op == GT || r.Op == GE {
				lo = max(lo, i)
			} else {
				hi = min(hi, i)
			}
		}
		hi = max(lo, hi)
		if req.Limit > 0 {
			hi = min(hi, lo+req.Limit)
		}
		// The records alias the partition's keys and cells, so the copy
		// of the slice is all a get allocates.
		res.Records = append(make([]Record, 0, hi-lo), recs[lo:hi]...)
	}
	res.SimMillis = s.lat.RequestCost + s.lat.PartitionCost + s.lat.RowCost*float64(len(res.Records))
	s.so.gets.Inc()
	s.so.recordsRead.Add(int64(len(res.Records)))
	return res, nil
}

// PutResult carries a put's simulated service time.
type PutResult struct {
	// SimMillis is the deterministic service time charged.
	SimMillis float64
}

// Put inserts or replaces one record.
func (s *Store) Put(name string, partition, clustering []Value, values []Value) (*PutResult, error) {
	cf, err := s.cf(name)
	if err != nil {
		return nil, err
	}
	if len(partition) != len(cf.def.PartitionCols) ||
		len(clustering) != len(cf.def.ClusteringCols) ||
		len(values) != len(cf.def.ValueCols) {
		return nil, fmt.Errorf("backend: put on %q has mismatched arity", name)
	}
	cf.mu.Lock()
	part := cf.part(partition)
	if part == nil {
		part = new([]Record)
		cf.parts[EncodeKey(partition)] = part
	}
	if i, found := search(*part, clustering); found {
		(*part)[i].Values = values // a replace keeps the key first written
	} else {
		*part = slices.Insert(*part, i, Record{Clustering: clustering, Values: values})
	}
	cf.mu.Unlock()
	cells := float64(len(partition) + len(clustering) + len(values))
	s.so.puts.Inc()
	return &PutResult{SimMillis: s.lat.InsertRequestCost + s.lat.InsertCellCost*cells}, nil
}

// Delete removes one record by its full primary key, reporting whether
// it existed.
func (s *Store) Delete(name string, partition, clustering []Value) (bool, *PutResult, error) {
	cf, err := s.cf(name)
	if err != nil {
		return false, nil, err
	}
	cf.mu.Lock()
	existed := false
	if part := cf.part(partition); part != nil {
		var i int
		if i, existed = search(*part, clustering); existed {
			*part = slices.Delete(*part, i, i+1)
		}
	}
	cf.mu.Unlock()
	s.so.deletes.Inc()
	return existed, &PutResult{SimMillis: s.lat.DeleteRequestCost}, nil
}

// Stats summarizes a column family's contents.
type Stats struct {
	// Partitions is the number of distinct partition keys.
	Partitions int
	// Records is the total number of records.
	Records int
}

// CFStats returns content statistics for a column family.
func (s *Store) CFStats(name string) (Stats, error) {
	cf, err := s.cf(name)
	if err != nil {
		return Stats{}, err
	}
	cf.mu.RLock()
	defer cf.mu.RUnlock()
	st := Stats{Partitions: len(cf.parts)}
	for _, part := range cf.parts {
		st.Records += len(*part)
	}
	return st, nil
}

// Names returns the defined column family names.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cfs))
	for n := range s.cfs {
		out = append(out, n)
	}
	return out
}
