package backend_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nose/internal/backend"
	"nose/internal/cost"
)

// chooser draws the choices of an operation sequence: *rand.Rand for
// the seeded test, fuzz bytes for the fuzz target.
type chooser interface{ Intn(n int) int }

// oracle is the brute-force reference a store is checked against: every
// record written, by encoded partition key, in write order.
type oracle map[string][]backend.Record

func (o oracle) put(p string, rec backend.Record) {
	recs := o[p]
	for i := range recs {
		if backend.CompareKeys(recs[i].Clustering, rec.Clustering) == 0 {
			recs[i].Values = rec.Values // a replace keeps the first key written
			return
		}
	}
	o[p] = append(recs, rec)
}

func (o oracle) delete(p string, key []backend.Value) bool {
	recs := o[p]
	for i := range recs {
		if backend.CompareKeys(recs[i].Clustering, key) == 0 {
			o[p] = append(recs[:i:i], recs[i+1:]...)
			return true
		}
	}
	return false
}

// get filters a partition by the request's ranges, sorts what is left
// by clustering key and cuts it at the limit.
func (o oracle) get(p string, req backend.GetRequest) []backend.Record {
	var out []backend.Record
	for _, rec := range o[p] {
		keep := true
		for _, r := range req.Ranges {
			c := backend.CompareValues(rec.Clustering[0], r.Value)
			switch r.Op {
			case backend.GT:
				keep = keep && c > 0
			case backend.GE:
				keep = keep && c >= 0
			case backend.LT:
				keep = keep && c < 0
			case backend.LE:
				keep = keep && c <= 0
			}
		}
		if keep {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return backend.CompareKeys(out[i].Clustering, out[j].Clustering) < 0
	})
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
	}
	return out
}

// drawValue draws one clustering value of a column kind: 0 mixes int64
// and float64 (they compare across kinds, so int64(3) and float64(3)
// are the same key), 1 is a string, 2 a bool.
func drawValue(c chooser, kind int) backend.Value {
	switch kind {
	case 0:
		if c.Intn(2) == 0 {
			return int64(c.Intn(12))
		}
		return float64(c.Intn(24)) / 2
	case 1:
		return string(rune('a' + c.Intn(8)))
	default:
		return c.Intn(2) == 0
	}
}

// checkStoreAgainstOracle runs ops puts, replaces, deletes and gets
// drawn from c against a store with cols clustering columns, and checks
// every get, and the final statistics, against the oracle.
func checkStoreAgainstOracle(t *testing.T, c chooser, cols, ops int) {
	t.Helper()
	s := backend.NewStore(cost.DefaultParams())
	def := backend.ColumnFamilyDef{Name: "cf", PartitionCols: []string{"P"}, ValueCols: []string{"V"}}
	kinds := make([]int, cols)
	for i := range kinds {
		def.ClusteringCols = append(def.ClusteringCols, string(rune('A'+i)))
		kinds[i] = c.Intn(3)
	}
	if err := s.Create(def); err != nil {
		t.Fatal(err)
	}
	ref := oracle{}
	drawKey := func() []backend.Value {
		key := make([]backend.Value, cols)
		for i, kind := range kinds {
			key[i] = drawValue(c, kind)
		}
		return key
	}
	for op := 0; op < ops; op++ {
		part := []backend.Value{int64(c.Intn(4))}
		p := backend.EncodeKey(part)
		switch choice := c.Intn(10); {
		case choice < 5: // put a drawn key, or replace a written one
			key := drawKey()
			if recs := ref[p]; choice == 4 && len(recs) > 0 {
				key = recs[c.Intn(len(recs))].Clustering
			}
			vals := []backend.Value{int64(op)}
			if _, err := s.Put("cf", part, key, vals); err != nil {
				t.Fatal(err)
			}
			ref.put(p, backend.Record{Clustering: key, Values: vals})
		case choice < 7: // delete a written key, or a drawn one
			key := drawKey()
			if recs := ref[p]; choice == 5 && len(recs) > 0 {
				key = recs[c.Intn(len(recs))].Clustering
			}
			existed, _, err := s.Delete("cf", part, key)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.delete(p, key); existed != want {
				t.Fatalf("op %d: delete %v from %v existed=%v, want %v", op, key, part, existed, want)
			}
		default:
			req := backend.GetRequest{Partition: part, Limit: c.Intn(16)}
			for n := c.Intn(3); n > 0; n-- {
				req.Ranges = append(req.Ranges, backend.ClusterRange{
					Op: backend.RangeOp(c.Intn(4)), Value: drawValue(c, kinds[0]),
				})
			}
			res, err := s.Get("cf", req)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.get(p, req)
			if len(res.Records) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Records, want)) {
				t.Fatalf("op %d: get %+v\n got %v\nwant %v", op, req, res.Records, want)
			}
		}
	}
	st, err := s.CFStats("cf")
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, recs := range ref {
		records += len(recs)
	}
	if st.Partitions != len(ref) || st.Records != records {
		t.Fatalf("stats %+v, want %d partitions and %d records", st, len(ref), records)
	}
}

// byteChooser draws each choice from one byte of fuzz input, and zeros
// once the input runs out.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzStoreAgainstOracle turns bytes into a sequence of puts, replaces,
// deletes and gets over one or two clustering columns of mixed value
// kinds, and checks every get against the oracle TestStoreMatchesOracle
// uses.
func FuzzStoreAgainstOracle(f *testing.F) {
	for _, seed := range [][]byte{
		{0}, {1, 0, 0, 0, 9, 1, 0, 0, 8, 2}, []byte("sorted partitions"), {1, 2, 2, 3, 3, 4, 5, 5, 7, 9, 2, 8, 8, 0xff, 3, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := byteChooser(data)
		cols := 1 + c.Intn(2)
		checkStoreAgainstOracle(t, &c, cols, len(data)/3)
	})
}

// TestStoreMatchesOracle drives random puts, replaces, deletes and
// ranged, limited gets through the store over one and two clustering
// columns, checking every get against a sorted brute-force filter.
func TestStoreMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for cols := 1; cols <= 2; cols++ {
			checkStoreAgainstOracle(t, rand.New(rand.NewSource(seed)), cols, 3000)
		}
	}
}
