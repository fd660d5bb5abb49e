package backend

// KVBackend is the operation surface a plan executor needs from a
// record store: column family definitions plus the get, put and delete
// primitives. *Store implements it directly; wrappers such as the fault
// injector in internal/faults interpose on it to alter behavior without
// touching the store.
type KVBackend interface {
	// Def returns a column family's definition.
	Def(name string) (ColumnFamilyDef, error)
	// Get executes one get request against a column family. It
	// retains neither req.Partition nor req.Into past the call; with
	// req.Into set, the result's Records may share its array.
	Get(name string, req GetRequest) (*GetResult, error)
	// Put inserts or replaces one record.
	Put(name string, partition, clustering []Value, values []Value) (*PutResult, error)
	// Delete removes one record by its full primary key, reporting
	// whether it existed.
	Delete(name string, partition, clustering []Value) (bool, *PutResult, error)
}

var _ KVBackend = (*Store)(nil)
