package backend

import (
	"fmt"
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
// partitions, each an ordered B+tree of records.
type columnFamily struct {
	mu    sync.RWMutex
	def   ColumnFamilyDef
	parts map[string]*btree
}

// part returns a partition's tree, nil when the partition is empty; the
// caller holds cf.mu. The key is encoded into a stack buffer, so the
// probe builds no string.
func (cf *columnFamily) part(partition []Value) *btree {
	var buf [keyBufSize]byte
	return cf.parts[string(AppendKey(buf[:0], partition))]
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
	s.cfs[def.Name] = &columnFamily{def: def, parts: map[string]*btree{}}
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
	if tree := cf.part(req.Partition); tree != nil {
		from, to := scanBounds(req.Ranges, len(cf.def.ClusteringCols))
		// Size the result once: a get returns the whole partition, its
		// first Limit records, or — ranged without a limit — the matches
		// a first pass counts. The records alias the tree, so the slice
		// is all a get allocates, and growing it by append costs three
		// times its final size in discarded arrays; counting is cheaper.
		size := tree.Len()
		if req.Limit > 0 {
			size = min(req.Limit, size)
		} else if len(req.Ranges) > 0 {
			size = 0
			tree.Scan(from, to, func(key []Value, _ []Value) bool {
				if matchRanges(key, req.Ranges) {
					size++
				}
				return true
			})
		}
		res.Records = make([]Record, 0, size)
		tree.Scan(from, to, func(key []Value, vals []Value) bool {
			if !matchRanges(key, req.Ranges) {
				return true
			}
			res.Records = append(res.Records, Record{Clustering: key, Values: vals})
			return req.Limit <= 0 || len(res.Records) < req.Limit
		})
	}
	res.SimMillis = s.lat.RequestCost + s.lat.PartitionCost + s.lat.RowCost*float64(len(res.Records))
	s.so.gets.Inc()
	s.so.recordsRead.Add(int64(len(res.Records)))
	return res, nil
}

// scanBounds converts first-column ranges into composite scan bounds
// for a column family with clusterCols clustering columns. With a
// single clustering column the bounds are exact, including an exclusive
// lower bound for GT. With composite keys, a key sharing the bounded
// first value extends beyond the single-column bound (CompareKeys sorts
// the prefix first), so GT lower bounds stay inclusive at the prefix
// and upper bounds are widened to open; matchRanges re-checks every
// scanned record either way.
func scanBounds(ranges []ClusterRange, clusterCols int) (Bound, Bound) {
	var from, to Bound
	single := clusterCols == 1
	for _, r := range ranges {
		switch r.Op {
		case GT:
			from = Bound{Key: []Value{r.Value}, Inclusive: !single}
		case GE:
			from = Bound{Key: []Value{r.Value}, Inclusive: true}
		case LT:
			if single {
				to = Bound{Key: []Value{r.Value}, Inclusive: false}
			} else {
				to = Bound{} // widened: checked by matchRanges
			}
		case LE:
			if single {
				to = Bound{Key: []Value{r.Value}, Inclusive: true}
			} else {
				to = Bound{} // widened: checked by matchRanges
			}
		}
	}
	return from, to
}

// matchRanges applies the first-clustering-column bounds exactly.
func matchRanges(key []Value, ranges []ClusterRange) bool {
	for _, r := range ranges {
		c := CompareValues(key[0], r.Value)
		switch r.Op {
		case GT:
			if c <= 0 {
				return false
			}
		case GE:
			if c < 0 {
				return false
			}
		case LT:
			if c >= 0 {
				return false
			}
		case LE:
			if c > 0 {
				return false
			}
		}
	}
	return true
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
	tree := cf.part(partition)
	if tree == nil {
		tree = newBTree()
		cf.parts[EncodeKey(partition)] = tree
	}
	tree.Set(clustering, values)
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
	if tree := cf.part(partition); tree != nil {
		existed = tree.Delete(clustering)
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
	for _, t := range cf.parts {
		st.Records += t.Len()
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
