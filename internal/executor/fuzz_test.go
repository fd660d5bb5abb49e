package executor_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nose/internal/backend"
	"nose/internal/bip"
	"nose/internal/executor"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/search"
	"nose/internal/workload"
)

// cellOf draws a value of the attribute's type from a domain of n, so
// that equality predicates find matches in a small dataset.
func cellOf(rng *rand.Rand, a *model.Attribute, n int) backend.Value { return synth(a, rng.Intn(n)) }

// randomDataset fills a graph with rows entities per entity set, cells
// drawn from small domains, and gives every child of a one-to-many
// relationship one random parent (some of them none, so that paths
// through it lose rows).
func randomDataset(rng *rand.Rand, g *model.Graph, rows int) (*backend.Dataset, error) {
	ds := backend.NewDataset(g)
	for _, e := range g.Entities() {
		for id := 0; id < rows; id++ {
			row := map[string]backend.Value{e.Key().Name: int64(id)}
			for _, a := range e.NonKeyAttributes() {
				row[a.Name] = cellOf(rng, a, 4)
			}
			if err := ds.AddEntity(e, row); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range g.Entities() {
		for _, ed := range e.Edges() {
			if ed.Card != model.Many {
				continue
			}
			for child := 0; child < rows; child++ {
				if rng.Intn(5) == 0 {
					continue
				}
				if err := ds.Connect(ed, int64(rng.Intn(rows)), int64(child)); err != nil {
					return nil, err
				}
			}
		}
	}
	return ds, nil
}

// FuzzExecutorAgainstOracle drives random workloads and datasets
// through the advisor and the compiled executor: the bytes pick a
// randwork graph and workload, a small dataset over it and the
// bindings; the workload is advised under a tiny node budget; every
// plan of every query's plan list must equal the map-row reference
// interpreter (rows in order, SimMillis bit for bit), every plan on
// its query's own path must equal executor.Oracle, and RunQuery must
// equal ExecuteQuery on SimMillis bit for bit, Retries, the error text
// and the store calls. Joins through slots and filters, sorts and
// limits after a lookup are where a wrongly dropped move would show.
func FuzzExecutorAgainstOracle(f *testing.F) {
	for _, seed := range [][]byte{
		{1}, {2, 3, 1, 7}, {0xff, 4, 5, 6, 7, 8, 9, 10, 11}, []byte("compiled plans"), {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw [12]byte
		copy(raw[:], data)
		seed := int64(binary.LittleEndian.Uint64(raw[:8]))
		w, err := randwork.Generate(randwork.Config{
			Seed:         seed,
			BaseEntities: 2 + int(raw[8]%4),
			BaseQueries:  1 + int(raw[9]%5),
			BaseUpdates:  1 + int(raw[10]%2),
		})
		if err != nil {
			t.Skip(err) // not every random graph validates
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		ds, err := randomDataset(rng, w.Graph, 3+int(raw[11]%8))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := search.Advise(w, search.Options{
			Planner:         planner.Config{MaxPlansPerQuery: 6},
			MaxSupportPlans: 2,
			BIP:             bip.Options{MaxNodes: 5, Gap: 0.05},
		})
		if err != nil {
			t.Skip(err)
		}
		tw := newTwin(t, ds, rec)
		for binding := 0; binding < 3; binding++ {
			// Parameter names repeat across queries with different types,
			// so each query is bound on its own.
			params := executor.Bindings{}
			for i, qr := range rec.Queries {
				for _, p := range qr.Statement.Statement.(*workload.Query).Where {
					params[p.Param] = cellOf(rng, p.Ref.Attr, 4)
				}
				tw.checkPlans(t, fmt.Sprintf("binding %d", binding), i, params)
			}
		}
	})
}
