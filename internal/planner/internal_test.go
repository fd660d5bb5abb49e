package planner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nose/internal/cost"
	"nose/internal/enumerator"
	"nose/internal/hotel"
	"nose/internal/model"
	"nose/internal/randwork"
	"nose/internal/schema"
	"nose/internal/workload"
)

func TestPathCoversSegment(t *testing.T) {
	g := hotel.Graph()
	full, _ := g.ResolvePath([]string{"Guest", "Reservations", "Room", "Hotel"})
	seg, _ := g.ResolvePath([]string{"Room", "Hotel"})
	revSeg := seg.Reverse()

	if !pathCoversSegment(full, seg) {
		t.Error("full path should cover its sub-segment")
	}
	if !pathCoversSegment(full, revSeg) {
		t.Error("edge direction must not matter")
	}
	if !pathCoversSegment(seg, seg) {
		t.Error("a path covers itself")
	}

	// A different relationship over the same entities is not covered.
	bids, _ := g.ResolvePath([]string{"Guest", "Reservations"})
	poi, _ := g.ResolvePath([]string{"Hotel", "PointsOfInterest"})
	if pathCoversSegment(bids, poi) {
		t.Error("disjoint relationships should not cover")
	}

	// Entity containment matters even for zero-edge segments.
	hotelOnly, _ := g.ResolvePath([]string{"Hotel"})
	if pathCoversSegment(bids, hotelOnly) {
		t.Error("segment entity off the family path should not cover")
	}
	if !pathCoversSegment(full, hotelOnly) {
		t.Error("zero-edge segment on the path should cover")
	}
}

func TestEstimateMonotonicInDrivingRows(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	p := New(res.Pool, cost.Default(), Config{})
	space, err := p.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Within one plan space, a plan with strictly more lookup steps on
	// the same data should not be cheaper than the single-lookup
	// optimum.
	best := space.Plans[0]
	for _, pl := range space.Plans[1:] {
		if pl.Cost < best.Cost {
			t.Fatalf("plan ordering violated: %v < %v", pl.Cost, best.Cost)
		}
	}
}

func TestPruneChainsKeepsCheapest(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, err := enumerator.EnumerateWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	p := New(res.Pool, cost.Default(), Config{MaxPlansPerQuery: 2})
	gen := newGenerator(p)
	chains := gen.chains(q, newChainMemo(), 0)
	if len(chains) > 4*2 {
		t.Errorf("chains not pruned to beam: %d", len(chains))
	}
	if len(chains) == 0 {
		t.Fatal("no chains")
	}
	for i, c := range chains {
		if want := gen.newChain(c.steps); c.id != want.id || c.cost != want.cost {
			t.Errorf("beam chain %d carries id %x cost %+v, from scratch id %x cost %+v",
				i, c.id, c.cost, want.id, want.cost)
		}
		if i > 0 && chains[i-1].cost.total > c.cost.total {
			t.Errorf("beam not cheapest first at %d: %v > %v", i, chains[i-1].cost.total, c.cost.total)
		}
	}
	// The cheapest chain must be the single-lookup materialized view
	// plan.
	first := &Plan{Query: q, Steps: chains[0].steps}
	if len(first.Indexes()) != 1 {
		t.Errorf("cheapest chain is not the single-lookup view:\n%s", first)
	}
}

// newChain interns and costs a step sequence from scratch.
func (g *generator) newChain(steps []Step) chain {
	sts := make([]interned, len(steps))
	for i, st := range steps {
		switch s := st.(type) {
		case *LookupStep:
			sts[i] = g.table.lookupStep(s)
		case *FilterStep:
			sts[i] = g.table.filter(s.Predicates)
		case *SortStep:
			sts[i] = g.table.sort(s.By)
		case *LimitStep:
			sts[i] = g.table.limit(s.N)
		}
	}
	return g.chainOf(sts...)
}

// NamedWorkload is one input of the differential tests.
type NamedWorkload struct {
	Name string
	W    *workload.Workload
}

// DifferentialWorkloads builds the workloads both differential tests
// walk: the hotel example extended with ordered and limited queries,
// and random workloads — factor 2 seed 42, the benchmark's factor 3
// seed 42, and six more seeds at factors 1 to 3 (two of them under
// -short). The external test adds RUBiS, which imports this package.
func DifferentialWorkloads(t *testing.T) []NamedWorkload {
	t.Helper()
	g := hotel.Graph()
	hw := workload.New(g)
	for _, src := range []string{
		hotel.ExampleQuery, hotel.PrefixQuery, hotel.POIQuery,
		// Ordered and limited: the clustering-served lookup takes the
		// limit itself, or a LimitStep when a filter follows it; the
		// client-side sort variants end in sort + limit.
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c ORDER BY Room.RoomNumber LIMIT 5`,
		`SELECT Room.RoomNumber FROM Room WHERE Room.Hotel.HotelCity = ?c AND Room.RoomRate > ?r ORDER BY Room.RoomNumber LIMIT 5`,
		`SELECT Guest.GuestName FROM Guest WHERE Guest.Reservations.Room.Hotel.HotelCity = ?c LIMIT 3`,
	} {
		hw.Add(workload.MustParseQuery(g, src), 1)
	}
	for _, src := range hotel.UpdateStatements {
		hw.Add(workload.MustParse(g, src), 1)
	}
	out := []NamedWorkload{{"hotel", hw}}
	configs := []randwork.Config{
		{Factor: 1, Seed: 3}, {Factor: 1, Seed: 17},
		{Factor: 2, Seed: 42}, {Factor: 3, Seed: 42}, {Factor: 1, Seed: 7},
		{Factor: 2, Seed: 23}, {Factor: 2, Seed: 31}, {Factor: 3, Seed: 7},
	}
	if testing.Short() {
		configs = configs[:2]
	}
	for _, cfg := range configs {
		rw, err := randwork.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, NamedWorkload{fmt.Sprintf("randwork-f%ds%d", cfg.Factor, cfg.Seed), rw})
	}
	return out
}

// AllQueries returns the workload's queries followed by every support
// query enumeration derived for its writes, in workload and pool order.
// Many support queries recur, statement for statement.
func AllQueries(w *workload.Workload, res *enumerator.Result) []*workload.Query {
	var queries []*workload.Query
	for _, ws := range w.Queries() {
		queries = append(queries, ws.Statement.(*workload.Query))
	}
	for _, ws := range w.Updates() {
		perIndex := res.Support[ws.Statement.(workload.WriteStatement)]
		for _, x := range res.Pool.Indexes() {
			queries = append(queries, perIndex[x.ID()]...)
		}
	}
	return queries
}

// DistinctQueries returns the first of every run of queries that read
// the same: same path, selection, predicates, parameter names, order
// and limit, hence the same plan space.
func DistinctQueries(queries []*workload.Query) []*workload.Query {
	seen := map[string]bool{}
	var out []*workload.Query
	for _, q := range queries {
		if !seen[q.String()] {
			seen[q.String()] = true
			out = append(out, q)
		}
	}
	return out
}

// TestBeamsMatchStringOracle: at every level of every decomposition,
// the beam kept on carried costs and interned ids equals — same chains,
// same order, same steps, bit-equal costs — the beam the oracle keeps
// by sorting on (from-scratch cost, signature string). A narrow
// plan-space cap makes sure the beams actually prune.
func TestBeamsMatchStringOracle(t *testing.T) {
	for _, nw := range DifferentialWorkloads(t) {
		name, w := nw.Name, nw.W
		res, err := enumerator.EnumerateWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		p := New(res.Pool, cost.Default(), Config{MaxPlansPerQuery: 3})
		ref := NewOracle(p)
		beams, pruned := 0, 0
		for _, q := range DistinctQueries(AllQueries(w, res)) {
			q = enumerator.RelaxOrder(q)
			gen, memo, oracle := newGenerator(p), newChainMemo(), newOracleMemo()
			gen.chains(q, memo, 0)
			oracleChains(ref, q, oracle)
			if len(memo.done) != len(oracle.done) {
				t.Fatalf("%s %s: %d memoized beams, oracle %d", name, workload.Label(q), len(memo.done), len(oracle.done))
			}
			for key, want := range oracle.done {
				got := memo.done[key]
				if len(got) != len(want) {
					t.Fatalf("%s %s beam %q: %d chains, oracle %d", name, workload.Label(q), key, len(got), len(want))
				}
				beams++
				if len(got) == 4*3 {
					pruned++
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].steps, want[i]) {
						t.Fatalf("%s %s beam %q chain %d: steps %s, oracle %s",
							name, workload.Label(q), key, i, stepsSignature(got[i].steps), stepsSignature(want[i]))
					}
					if scratch := p.fold(costState{}, want[i]); got[i].cost != scratch {
						t.Fatalf("%s %s beam %q chain %d: carried cost %+v, from scratch %+v",
							name, workload.Label(q), key, i, got[i].cost, scratch)
					}
				}
			}
		}
		if pruned == 0 {
			t.Errorf("%s: none of %d beams reached the width limit; the test prunes nothing", name, beams)
		}
	}
}

// TestSignatureLessPrefixEdge: when one step signature is a strict
// prefix of another, comparing the two signatures alone gives the wrong
// answer — in the concatenated string the shorter one's '|' separator
// meets the longer one's next byte. The id comparator must order such
// chains exactly as the materialized strings do.
func TestSignatureLessPrefixEdge(t *testing.T) {
	g := model.NewGraph()
	e := g.AddEntity("E", "ID", 100)
	a := e.AddAttribute("A", model.IntegerType)
	ab := e.AddAttribute("AB", model.IntegerType)
	x := schema.New(model.NewPath(e), []*model.Attribute{a, ab}, []*model.Attribute{e.Key()}, nil)
	eq := func(attr *model.Attribute) []workload.Predicate {
		return []workload.Predicate{{Ref: workload.AttrRef{Attr: attr}, Op: workload.Eq, Param: "p"}}
	}
	ref := func(attr *model.Attribute) workload.AttrRef { return workload.AttrRef{Attr: attr} }

	lookupA := &LookupStep{Index: x, EqPredicates: eq(a)}
	lookupAB := &LookupStep{Index: x, EqPredicates: eq(ab)} // "…=E.A" + "B"
	lookupAOrdered := &LookupStep{Index: x, EqPredicates: eq(a), ServesOrder: true}
	sortA := &SortStep{By: []workload.AttrRef{ref(a)}}
	sortAAB := &SortStep{By: []workload.AttrRef{ref(a), ref(ab)}} // "S:E.A," + "E.AB,"
	limit := &LimitStep{N: 5}

	gen := newGenerator(New(enumerator.NewPool(), cost.Default(), Config{}))
	var chains []chain
	for _, steps := range [][]Step{
		{lookupA},
		{lookupA, limit},
		{lookupAB},
		{lookupAB, limit},
		{lookupAOrdered},
		{lookupA, sortA},
		{lookupA, sortA, limit},
		{lookupA, sortAAB},
		{lookupAB, sortAAB, limit},
	} {
		chains = append(chains, gen.newChain(steps))
	}

	// The edge is real: on signatures alone lookupA sorts before
	// lookupAB and lookupAOrdered, on the joined strings after both.
	for _, longer := range []Step{lookupAB, lookupAOrdered} {
		short, long := lookupA.signature(), longer.signature()
		if !strings.HasPrefix(long, short) || !(short < long) {
			t.Fatalf("%q is not a strict prefix of %q", short, long)
		}
		if !(stepsSignature([]Step{longer}) < stepsSignature([]Step{lookupA})) {
			t.Fatalf("joined strings do not invert the order of %q and %q", short, long)
		}
	}

	for i := range chains {
		for j := range chains {
			if i == j {
				continue
			}
			// Every split of a chain into head ++ tail must compare the
			// same: a candidate's id is read across the seam.
			want := stepsSignature(chains[i].steps) < stepsSignature(chains[j].steps)
			for _, a := range splits(gen, &chains[i]) {
				for _, b := range splits(gen, &chains[j]) {
					if got := gen.signatureLess(&a, &b); got != want {
						t.Errorf("signatureLess(%q, %q) = %v, strings say %v",
							stepsSignature(chains[i].steps), stepsSignature(chains[j].steps), got, want)
					}
				}
			}
		}
	}
}

// splits returns c as a whole candidate and as every join of a proper
// head with the rest.
func splits(g *generator, c *chain) []candidate {
	out := []candidate{whole(c)}
	for k := 1; k < len(c.steps); k++ {
		head, tail := g.newChain(c.steps[:k]), g.newChain(c.steps[k:])
		out = append(out, g.join(&head, &tail))
	}
	return out
}

// TestBeamMatchesCheapest: a beam fed candidates one at a time keeps
// exactly what cheapest keeps over the fully materialized list — the
// same candidates (by head and tail, so the first of each id), in the
// same order — or, when no more than the width were offered, that list
// as generated. The candidates are synthetic: step sequences over
// classes whose signatures are prefixes of one another ("…=E.A",
// "…=E.AB", "…=E.A!o"; "T:5", "T:50"), split into head ++ tail at every
// seam, offered in random order with repeats, at costs drawn per id
// from one value, three, or a thousand. Equal ids get equal costs, as
// they do in chains.
func TestBeamMatchesCheapest(t *testing.T) {
	g := model.NewGraph()
	e := g.AddEntity("E", "ID", 100)
	a := e.AddAttribute("A", model.IntegerType)
	ab := e.AddAttribute("AB", model.IntegerType)
	x := schema.New(model.NewPath(e), []*model.Attribute{a, ab}, []*model.Attribute{e.Key()}, nil)
	eq := func(attr *model.Attribute) []workload.Predicate {
		return []workload.Predicate{{Ref: workload.AttrRef{Attr: attr}, Op: workload.Eq, Param: "p"}}
	}
	ref := func(attr *model.Attribute) workload.AttrRef { return workload.AttrRef{Attr: attr} }
	steps := []Step{
		&LookupStep{Index: x, EqPredicates: eq(a)},
		&LookupStep{Index: x, EqPredicates: eq(ab)},
		&LookupStep{Index: x, EqPredicates: eq(a), ServesOrder: true},
		&SortStep{By: []workload.AttrRef{ref(a)}},
		&SortStep{By: []workload.AttrRef{ref(a), ref(ab)}},
		&LimitStep{N: 5},
		&LimitStep{N: 50},
	}

	const maxPlans = 2
	gen := newGenerator(New(enumerator.NewPool(), cost.Default(), Config{MaxPlansPerQuery: maxPlans}))
	width := 4 * maxPlans
	rng := rand.New(rand.NewSource(11))
	var asGenerated, straddling, firstKept int
	for trial := 0; trial < 600; trial++ {
		// Distinct step sequences, then every split of each into
		// candidates, each split built afresh so that repeats of one id
		// are told apart by their chains.
		seqs := make([][]Step, 1+rng.Intn(3*width))
		for i := range seqs {
			seq := make([]Step, 1+rng.Intn(3))
			for j := range seq {
				seq[j] = steps[rng.Intn(len(steps))]
			}
			seqs[i] = seq
		}
		costs := map[string]costState{}
		spread := []int{1, 3, 1000}[trial%3]
		offer := func(seq []Step) candidate {
			k := rng.Intn(len(seq))
			var c candidate
			if k == 0 {
				whole := gen.newChain(seq)
				c = candidate{head: &whole}
			} else {
				head, tail := gen.newChain(seq[:k]), gen.newChain(seq[k:])
				c = candidate{head: &head, tail: &tail}
			}
			id := c.head.id
			if c.tail != nil {
				id += c.tail.id
			}
			if _, ok := costs[id]; !ok {
				costs[id] = costState{rows: 1, total: float64(rng.Intn(spread))}
			}
			c.cost = costs[id]
			return c
		}
		n := 1 + rng.Intn(width)
		if trial%4 != 0 {
			n = width + rng.Intn(6*beamSlack*width)
		}
		offered := make([]candidate, n)
		for i := range offered {
			offered[i] = offer(seqs[rng.Intn(len(seqs))])
		}

		b := gen.newBeam()
		for _, c := range offered {
			b.add(c)
		}
		got := b.finish()
		want := append([]candidate(nil), offered...)
		if len(want) > width {
			want = gen.cheapest(want, width)
		} else {
			asGenerated++
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: beam keeps %d of %d candidates, cheapest %d", trial, len(got), n, len(want))
		}
		for i := range got {
			if got[i].head != want[i].head || got[i].tail != want[i].tail || got[i].cost != want[i].cost {
				t.Fatalf("trial %d (%d offered, costs from %d values): candidate %d differs from cheapest's",
					trial, n, spread, i)
			}
		}
		gen.free = append(gen.free, b.buf[:0])

		// What the trial exercised: an id offered on both sides of the
		// first compaction, and a kept candidate whose id recurs later.
		firstAt := map[string]int{}
		for i := range offered {
			id := offered[i].head.id
			if offered[i].tail != nil {
				id += offered[i].tail.id
			}
			if at, ok := firstAt[id]; !ok {
				firstAt[id] = i
			} else if at < beamSlack*width && i >= beamSlack*width {
				straddling++
			}
		}
		if len(offered) > width {
			for _, c := range got {
				for i := range offered {
					if offered[i].head == c.head && offered[i].tail == c.tail {
						for _, later := range offered[i+1:] {
							if sameID(&later, &c) {
								firstKept++
								break
							}
						}
						break
					}
				}
			}
		}
	}
	if asGenerated == 0 || straddling == 0 || firstKept == 0 {
		t.Errorf("trials kept %d sets as generated, offered %d ids across a compaction and kept %d firsts of a repeated id; each must be nonzero",
			asGenerated, straddling, firstKept)
	}
}

func TestEnrichBetterOrdering(t *testing.T) {
	g := hotel.Graph()
	w := workload.New(g)
	q := workload.MustParseQuery(g, hotel.ExampleQuery)
	w.Add(q, 1)
	res, _ := enumerator.EnumerateWorkload(w)
	guest := g.MustEntity("Guest")
	// Among pool candidates keyed by GuestID, the tightest (fanout 1)
	// must win enrichBetter against any wider one.
	var best *schema.Index
	for _, x := range res.Pool.Indexes() {
		if len(x.Partition) == 1 && x.Partition[0] == guest.Key() {
			if best == nil || enrichBetter(x, best, guest) {
				best = x
			}
		}
	}
	if best == nil {
		t.Fatal("no GuestID-keyed candidate")
	}
	if got := best.EntityFanout(guest); got != 1 {
		t.Errorf("best enrich candidate has fanout %v, want 1", got)
	}
}

// TestNthSmallestMatchesSort: the quickselect cheapest takes its cost
// bound from returns, for every rank, the value sorting would leave
// there — over random columns with ties, signed zeros, infinities and
// NaNs, and over sorted and reversed ones.
func TestNthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300}
	for trial := 0; trial < 400; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			if rng.Intn(3) == 0 {
				xs[i] = pool[rng.Intn(len(pool))]
			} else {
				xs[i] = math.Round(rng.Float64()*20) / 4
			}
		}
		switch trial % 4 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for n := range xs {
			got := nthSmallest(append([]float64(nil), xs...), n)
			if got != want[n] && !(math.IsNaN(got) && math.IsNaN(want[n])) {
				t.Fatalf("trial %d: nthSmallest(%v, %d) = %v, sorting gives %v", trial, xs, n, got, want[n])
			}
		}
	}
}
