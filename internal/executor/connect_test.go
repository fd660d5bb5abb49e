package executor_test

import (
	"fmt"
	"testing"

	"nose/internal/backend"
	"nose/internal/executor"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/search"
	"nose/internal/workload"
)

// connectFixture advises a workload containing CONNECT and DISCONNECT
// statements and installs the schema.
func connectFixture(t *testing.T) (*backend.Dataset, *search.Recommendation, *executor.Executor, workload.Statement, workload.Statement) {
	t.Helper()
	ds := buildHotelData(t)
	g := ds.Graph
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	q.Label = "GuestsByCity"
	w.Add(q, 1)
	conn := workload.MustParse(g, `CONNECT Guest(?gid) TO Reservations(?rid)`)
	disc := workload.MustParse(g, `DISCONNECT Guest(?gid) FROM Reservations(?rid)`)
	w.Add(conn, 0.3)
	w.Add(disc, 0.3)

	rec, _, ex := adviseAndInstall(t, ds, w)
	return ds, rec, ex, conn, disc
}

func execWrite(t *testing.T, ex *executor.Executor, rec *search.Recommendation, st workload.Statement, params executor.Params) {
	t.Helper()
	var urs []*search.UpdateRecommendation
	for _, ur := range rec.Updates {
		if ur.Statement.Statement == st {
			urs = append(urs, ur)
		}
	}
	if len(urs) == 0 {
		t.Fatalf("no update recommendations for %s", workload.Label(st))
	}
	if _, err := ex.ExecuteWrite(urs, params); err != nil {
		t.Fatalf("ExecuteWrite(%s): %v", workload.Label(st), err)
	}
}

func TestExecuteConnectCreatesRecords(t *testing.T) {
	ds, rec, ex, conn, _ := connectFixture(t)
	g := ds.Graph

	// Move reservation 5 to guest 40: disconnect happens in the
	// dataset mirror only after we run the executor's connect for a
	// reservation that previously had no guest... simpler: connect an
	// additional reservation-guest pair that does not exist yet.
	// Reservation 5's current guest connection stays; the view gains
	// records for guest 40 as well once connected.
	params := executor.Bindings{"gid": int64(40), "rid": int64(5)}
	execWrite(t, ex, rec, conn, params)
	if err := ds.Connect(g.MustEntity("Guest").Edge("Reservations"), int64(40), int64(5)); err != nil {
		t.Fatal(err)
	}

	for city := 0; city < 5; city++ {
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity",
			executor.Bindings{"city": fmt.Sprintf("City%d", city), "rate": float64(60)})
	}
}

func TestExecuteDisconnectRemovesRecords(t *testing.T) {
	ds, rec, ex, _, disc := connectFixture(t)
	g := ds.Graph

	// Find an existing guest-reservation pair to sever.
	guest := g.MustEntity("Guest")
	var gid, rid int64
	found := false
	path := model.NewPath(guest).Append(guest.Edge("Reservations"))
	must(t, ds.ForEachCombination(path, func(c *backend.Combination) error {
		if !found {
			g, _ := c.Value(backend.ColumnOf(path, guest.Key()))
			r, _ := c.Value(backend.ColumnOf(path, path.End().Key()))
			gid, rid, found = g.(int64), r.(int64), true
		}
		return nil
	}))
	if !found {
		t.Fatal("no connected pair in dataset")
	}

	params := executor.Bindings{"gid": gid, "rid": rid}
	execWrite(t, ex, rec, disc, params)
	if err := ds.Disconnect(guest.Edge("Reservations"), gid, rid); err != nil {
		t.Fatal(err)
	}

	for city := 0; city < 5; city++ {
		checkQueryAgainstOracle(t, ds, ex, rec, "GuestsByCity",
			executor.Bindings{"city": fmt.Sprintf("City%d", city), "rate": float64(60)})
	}
}
