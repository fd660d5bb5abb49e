package harness_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nose/internal/backend"
	"nose/internal/baselines"
	"nose/internal/bip"
	"nose/internal/cost"
	"nose/internal/executor"
	"nose/internal/harness"
	"nose/internal/planner"
	"nose/internal/rubis"
	"nose/internal/schema"
	"nose/internal/search"
	"nose/internal/workload"
)

// TestMaterializedRecordsPinned pins what the dataset materializes:
// per column family of the NoSE, Expert and Normalized RUBiS schemas
// (300 users, seed 1) and of the advised and normalized hotel schemas
// over a hotel dataset with removed rows, severed links and duplicate
// links, the record count and an FNV-64 over each record's partition,
// clustering and value encodings in the order ForEachRecord emits
// them; and every query's executor.Oracle rows, in returned order,
// under six seeded bindings. A change to how the dataset walks its
// paths must leave every line byte-identical (-update rewrites the
// golden file).
func TestMaterializedRecordsPinned(t *testing.T) {
	var b strings.Builder

	cfg := rubis.Config{Users: 300, Seed: 1}
	ds, err := rubis.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		pool func() (*search.Recommendation, error)
	}{
		{"NoSE", func() (*search.Recommendation, error) {
			return search.Advise(w, search.Options{
				Planner:         planner.Config{MaxPlansPerQuery: 24},
				MaxSupportPlans: 6,
				BIP:             bip.Options{MaxNodes: 300, Gap: 0.01},
			})
		}},
		{"Expert", func() (*search.Recommendation, error) {
			pool, err := baselines.ExpertRUBiS(w.Graph)
			if err != nil {
				return nil, err
			}
			return search.AdvisePinned(w, pool, search.Options{})
		}},
		{"Normalized", func() (*search.Recommendation, error) {
			pool, err := baselines.Normalized(w)
			if err != nil {
				return nil, err
			}
			return search.AdvisePinned(w, pool, search.Options{})
		}},
	} {
		rec, err := s.pool()
		if err != nil {
			t.Fatal(err)
		}
		writeRecordDigests(t, &b, "rubis "+s.name, ds, rec.Schema)
	}
	ps := rubis.NewParamSource(cfg, 11)
	bindings := make([]executor.Params, 6)
	for i := range bindings {
		bindings[i] = ps.Params("")
	}
	writeOracleDigests(t, &b, "rubis", ds, w, bindings)

	hw := hotelWorkload()
	hds := pinnedHotelDataset(t, hw)
	rec, err := search.Advise(hw, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	writeRecordDigests(t, &b, "hotel NoSE", hds, rec.Schema)
	pool, err := baselines.Normalized(hw)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.NewSchema()
	for _, x := range pool.Indexes() {
		sch.Add(x)
	}
	writeRecordDigests(t, &b, "hotel Normalized", hds, sch)
	rng := rand.New(rand.NewSource(5))
	for i := range bindings {
		bindings[i] = executor.Bindings{
			"city":  fmt.Sprintf("City%d", rng.Intn(4)),
			"rate":  float64(40 + rng.Intn(8)*10),
			"floor": int64(rng.Intn(4)),
			"id":    int64(rng.Intn(12)),
		}
	}
	writeOracleDigests(t, &b, "hotel", hds, hw, bindings)

	path := filepath.Join("testdata", "materialized-records.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// TestInstallIsWorkerInvariant installs the NoSE and Expert RUBiS
// schemas (300 users, seed 1) into a store and into a five-node RF 3
// cluster at one install worker and at two, and requires every family
// on every store to hold the same partitions with the same records in
// the same order: families install in parallel, each family's records
// in the dataset's order.
func TestInstallIsWorkerInvariant(t *testing.T) {
	ds, err := rubis.Generate(rubis.Config{Users: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := rubis.Workload(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	nose, err := search.Advise(w, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := baselines.ExpertRUBiS(w.Graph)
	if err != nil {
		t.Fatal(err)
	}
	expert, err := search.AdvisePinned(w, pool, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lat := cost.DefaultParams()
	for _, rec := range []*search.Recommendation{nose, expert} {
		cfg := harness.Config{Name: "install", Rec: rec, Dataset: ds}
		// stores installs the schema at a worker count and returns the
		// single store followed by the cluster's nodes.
		stores := func(workers int) []*backend.Store {
			s := backend.NewStore(lat)
			r := backend.NewReplicatedStore(lat, 5, 3)
			for _, into := range []backend.Installer{s, r} {
				if err := harness.Install(cfg, into, workers); err != nil {
					t.Fatal(err)
				}
			}
			out := []*backend.Store{s}
			for i := 0; i < r.NodeCount(); i++ {
				out = append(out, r.Node(i))
			}
			return out
		}
		one, two := stores(1), stores(2)
		for _, x := range rec.Schema.Indexes() {
			var partitions [][]backend.Value
			seen := map[string]bool{}
			err := ds.ForEachRecord(x, func(partition, _, _ []backend.Value) error {
				if k := backend.EncodeKey(partition); !seen[k] {
					seen[k] = true
					partitions = append(partitions, partition)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range one {
				st1, err1 := one[i].CFStats(x.Name)
				st2, err2 := two[i].CFStats(x.Name)
				if err1 != nil || err2 != nil || st1 != st2 {
					t.Fatalf("%s on store %d: %+v (%v) at one worker, %+v (%v) at two", x.Name, i, st1, err1, st2, err2)
				}
				for _, p := range partitions {
					r1, err1 := one[i].Get(x.Name, backend.GetRequest{Partition: p})
					r2, err2 := two[i].Get(x.Name, backend.GetRequest{Partition: p})
					if err1 != nil || err2 != nil || !reflect.DeepEqual(r1.Records, r2.Records) {
						t.Fatalf("%s on store %d, partition %v: %v (%v) at one worker, %v (%v) at two", x.Name, i, p, r1, err1, r2, err2)
					}
				}
			}
		}
	}
}

// writeRecordDigests writes one line per family of sch: its name, its
// record count and the FNV-64 of its records in emitted order.
func writeRecordDigests(t *testing.T, b *strings.Builder, label string, ds *backend.Dataset, sch *schema.Schema) {
	t.Helper()
	for _, x := range sch.Indexes() {
		h := fnv.New64a()
		n := 0
		err := ds.ForEachRecord(x, func(partition, clustering, values []backend.Value) error {
			n++
			for _, cells := range [][]backend.Value{partition, clustering, values} {
				h.Write([]byte(backend.EncodeKey(cells)))
				h.Write([]byte{'|'})
			}
			h.Write([]byte{'\n'})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Errorf("%s %s: no records", label, x.Name)
		}
		fmt.Fprintf(b, "%s %s records=%d fnv=%016x\n", label, x.Name, n, h.Sum64())
	}
}

// writeOracleDigests writes one line per query of w: its label, its
// row count under each binding and the FNV-64 of every row in returned
// order.
func writeOracleDigests(t *testing.T, b *strings.Builder, label string, ds *backend.Dataset, w *workload.Workload, bindings []executor.Params) {
	t.Helper()
	for _, ws := range w.Statements {
		q, ok := ws.Statement.(*workload.Query)
		if !ok {
			continue
		}
		h := fnv.New64a()
		counts := make([]string, len(bindings))
		for i, params := range bindings {
			rows, err := executor.Oracle(ds, q, params)
			if err != nil {
				t.Fatalf("%s: %v", workload.Label(q), err)
			}
			counts[i] = fmt.Sprint(len(rows))
			for _, row := range rows {
				h.Write([]byte(executor.CanonicalRows([]executor.Tuple{row})[0]))
				h.Write([]byte{'\n'})
			}
			h.Write([]byte{'#'})
		}
		fmt.Fprintf(b, "%s oracle %s rows=%s fnv=%016x\n", label, workload.Label(q), strings.Join(counts, ","), h.Sum64())
	}
}

// pinnedHotelDataset builds a seeded hotel dataset over w's graph with
// every relationship populated, some links doubled, then some rows
// removed and some links severed, so a walk meets multiplicity and
// tombstones.
func pinnedHotelDataset(t *testing.T, w *workload.Workload) *backend.Dataset {
	t.Helper()
	g := w.Graph
	ds := backend.NewDataset(g)
	rng := rand.New(rand.NewSource(3))
	hotelE, room, guest := g.MustEntity("Hotel"), g.MustEntity("Room"), g.MustEntity("Guest")
	res, poi, am := g.MustEntity("Reservation"), g.MustEntity("POI"), g.MustEntity("Amenity")
	const nHotels, nRooms, nGuests, nRes, nPOIs, nAmenities = 8, 40, 30, 120, 12, 6
	for i := 0; i < nHotels; i++ {
		must(t, ds.AddEntity(hotelE, map[string]backend.Value{
			"HotelID": i, "HotelName": fmt.Sprintf("Hotel%d", i), "HotelCity": fmt.Sprintf("City%d", i%4),
		}))
	}
	for i := 0; i < nPOIs; i++ {
		must(t, ds.AddEntity(poi, map[string]backend.Value{"POIID": i, "POIName": fmt.Sprintf("POI%d", i)}))
		for _, h := range rng.Perm(nHotels)[:1+rng.Intn(3)] {
			must(t, ds.Connect(hotelE.Edge("PointsOfInterest"), int64(h), int64(i)))
		}
	}
	for i := 0; i < nAmenities; i++ {
		must(t, ds.AddEntity(am, map[string]backend.Value{"AmenityID": i, "AmenityName": fmt.Sprintf("A%d", i)}))
	}
	for i := 0; i < nRooms; i++ {
		must(t, ds.AddEntity(room, map[string]backend.Value{
			"RoomID": i, "RoomRate": float64(40 + rng.Intn(8)*10), "RoomFloor": rng.Intn(4), "RoomNumber": i,
		}))
		must(t, ds.Connect(hotelE.Edge("Rooms"), int64(rng.Intn(nHotels)), int64(i)))
		for _, a := range rng.Perm(nAmenities)[:rng.Intn(3)] {
			must(t, ds.Connect(room.Edge("Amenities"), int64(i), int64(a)))
		}
	}
	for i := 0; i < nGuests; i++ {
		must(t, ds.AddEntity(guest, map[string]backend.Value{
			"GuestID": i, "GuestName": fmt.Sprintf("Guest%d", i), "GuestEmail": fmt.Sprintf("g%d@example.com", i),
		}))
	}
	for i := 0; i < nRes; i++ {
		must(t, ds.AddEntity(res, map[string]backend.Value{"ResID": i, "ResEndDate": int64(rng.Intn(100))}))
		must(t, ds.Connect(room.Edge("Reservations"), int64(rng.Intn(nRooms)), int64(i)))
		must(t, ds.Connect(guest.Edge("Reservations"), int64(rng.Intn(nGuests)), int64(i)))
	}
	// Doubled links: a relationship instance recorded twice is walked
	// twice.
	for i := 0; i < 6; i++ {
		must(t, ds.Connect(hotelE.Edge("PointsOfInterest"), int64(rng.Intn(nHotels)), int64(rng.Intn(nPOIs))))
		must(t, ds.Connect(guest.Edge("Reservations"), int64(rng.Intn(nGuests)), int64(rng.Intn(nRes))))
	}
	for i := 0; i < 4; i++ {
		must(t, ds.RemoveEntity(room, int64(rng.Intn(nRooms/4)*4+i)))
		must(t, ds.RemoveEntity(guest, int64(i*7)))
	}
	for i := 0; i < 10; i++ {
		must(t, ds.Disconnect(guest.Edge("Reservations"), int64(rng.Intn(nGuests)), int64(rng.Intn(nRes))))
		must(t, ds.UpdateEntity(res, int64(rng.Intn(nRes)), map[string]backend.Value{"ResEndDate": int64(100 + i)}))
	}
	return ds
}
