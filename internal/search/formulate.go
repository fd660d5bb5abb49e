package search

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"nose/internal/enumerator"
	"nose/internal/lp"
	"nose/internal/par"
	"nose/internal/planner"
	"nose/internal/schema"
	"nose/internal/workload"
)

// queryBlock is one workload query with its plan space.
type queryBlock struct {
	ws    *workload.WeightedStatement
	space *planner.PlanSpace
}

// supportGroup is one distinct support query of an update, shared by
// every modified column family that needs it: the query executes once
// per update execution, so its plan variables are gated on a single
// indicator that any of those families is selected.
type supportGroup struct {
	space   *planner.PlanSpace
	indexes []*schema.Index // modified families requiring this query
}

// updateBlock is one write statement with its per-family maintenance
// plans and shared support groups.
type updateBlock struct {
	ws     *workload.WeightedStatement
	u      workload.WriteStatement
	plans  map[string]*planner.UpdatePlan // by index ID
	order  []*schema.Index                // modified families, pool order
	groups []*supportGroup
}

// builder holds everything needed to formulate one interval of the BIP.
type builder struct {
	w       *workload.Workload
	pl      *planner.Planner
	pool    []*schema.Index
	queries []*queryBlock
	updates []*updateBlock
	opt     Options

	// at is each pool family's position in pool, by ID: colRefs and the
	// formulation's scratch are indexed by it.
	at map[string]int

	// maint is each index's weighted maintenance cost. Indexes with
	// zero maintenance and no storage constraint are "free": including
	// them can never hurt the objective, so the formulation fixes
	// their presence and omits their variables and linking rows. This
	// elision is exact and shrinks the program dramatically for
	// read-mostly workloads.
	maint map[string]float64

	// paidAll disables the free-family elision: every pool index gets a
	// presence variable. The multi-interval series formulation needs
	// this because presence is never free there — a family present in
	// one phase but not the previous one is charged its migration build
	// cost, so the solver must decide presence explicitly even for
	// maintenance-free families. A pinned pool (AdvisePinned) sets it
	// too, so that every family's maintenance is priced.
	paidAll bool

	// prunedPlans counts plans removed by dominance pruning and cuts
	// the cutting-plane rows of the interval's formulation; both feed the
	// obs registry.
	prunedPlans int
	cuts        int

	// formulatePhase's scratch, kept across its counting and writing
	// passes: a plan space's link row per family (linkRow), the stamp
	// marking the families that have one (seen, stamp), those families in
	// the order their rows were made (links), and one plan column's
	// entries.
	linkRow, seen, links []int
	stamp                int
	entries              []lp.Entry
}

// colRefs maps one interval's BIP columns back to schema objects and
// plans by position: a plan space's columns are consecutive, in plan
// order, so a plan's column is its space's first plus its rank.
type colRefs struct {
	// indexCol is each family's presence column, by position in the
	// builder's pool; -1 for a free family.
	indexCol []int
	// queryCol is the column of plan 0 of each query's space, in
	// b.queries order.
	queryCol []int
	// zCol is each support group's indicator column, groups numbered in
	// update order; the group's plan columns follow it.
	zCol []int
	// planVars counts the plan-choice columns.
	planVars int
}

// newBuilder plans every query and update in the workload, and with
// prune drops the pool families no plan reads (pruneUnselectable); a
// pinned pool keeps every family. Plan-space
// generation fans across a bounded worker pool: queries fill
// index-addressed slots and update blocks are built independently, with
// their maintenance-cost contributions merged in workload order so
// floating-point accumulation is bit-identical for every worker count.
// opt has been through withDefaults, so opt.Workers is positive.
func newBuilder(w *workload.Workload, pl *planner.Planner, enumRes *enumerator.Result, prune bool, opt Options) (*builder, error) {
	b := &builder{w: w, pl: pl, pool: pl.Pool().Indexes(), opt: opt, maint: map[string]float64{}}

	qws := w.Queries()
	qblocks := make([]*queryBlock, len(qws))
	qerrs := make([]error, len(qws))
	par.Do(len(qws), opt.Workers, func(i int) {
		// The plan-space fan-out is the advisor's costing hot loop;
		// checking the context per item keeps a cancelled solve from
		// planning the rest of the workload.
		if err := opt.Ctx.Err(); err != nil {
			qerrs[i] = err
			return
		}
		q := qws[i].Statement.(*workload.Query)
		space, err := pl.PlanQuery(q)
		if err != nil {
			qerrs[i] = err
			return
		}
		qblocks[i] = &queryBlock{ws: qws[i], space: space}
	})
	for i := range qws {
		if qerrs[i] != nil {
			return nil, qerrs[i]
		}
		b.queries = append(b.queries, qblocks[i])
	}

	uws := w.Updates()
	ublocks := make([]*updateBlock, len(uws))
	umaints := make([]map[string]float64, len(uws))
	uerrs := make([]error, len(uws))
	par.Do(len(uws), opt.Workers, func(i int) {
		if err := opt.Ctx.Err(); err != nil {
			uerrs[i] = err
			return
		}
		ublocks[i], umaints[i], uerrs[i] = b.buildUpdateBlock(uws[i], enumRes)
	})
	for i := range uws {
		if uerrs[i] != nil {
			return nil, uerrs[i]
		}
		// Per-key sums accumulate across updates in workload order; keys
		// never interact, so map iteration order here is irrelevant.
		for id, m := range umaints[i] {
			b.maint[id] += m
		}
		if len(ublocks[i].order) > 0 {
			b.updates = append(b.updates, ublocks[i])
		}
	}
	// Dominated plans first: candidates used only by dominated plans
	// then fall to the unselectable prune below.
	b.pruneDominatedPlans()
	if prune {
		b.pruneUnselectable()
	}
	if err := b.checkPrices(); err != nil {
		return nil, err
	}
	b.at = make(map[string]int, len(b.pool))
	for pos, x := range b.pool {
		b.at[x.ID()] = pos
	}
	return b, nil
}

// checkPrices rejects a statement whose weight overflows a price it
// multiplies: an infinite objective coefficient proves nothing about
// feasibility. Plan spaces are sorted cheapest first.
func (b *builder) checkPrices() error {
	last := func(space *planner.PlanSpace) float64 { return space.Plans[len(space.Plans)-1].Cost }
	worst := map[*workload.WeightedStatement]float64{}
	for _, qb := range b.queries {
		worst[qb.ws] = last(qb.space)
	}
	for _, ub := range b.updates {
		for _, up := range ub.plans {
			worst[ub.ws] = math.Max(worst[ub.ws], up.WriteCost)
		}
		for _, g := range ub.groups {
			worst[ub.ws] = math.Max(worst[ub.ws], last(g.space))
		}
	}
	for _, ws := range b.w.Statements {
		if weight := b.w.Weight(ws); math.IsInf(weight*worst[ws], 0) {
			return fmt.Errorf("search: statement %q: weight %g times cost %g overflows",
				workload.Label(ws.Statement), weight, worst[ws])
		}
	}
	return nil
}

// pruneDominatedPlans drops every plan whose index set is a superset of
// an earlier (hence cheaper-or-equal: plan spaces are sorted by cost
// with a deterministic tiebreak) plan's in the same space. The removal
// is exact for both solver phases: wherever the dominated plan is
// feasible, the dominating plan is too, at no greater cost, and it is
// ranked first. Shrinking the plan
// spaces before formulation removes their columns and linking rows from
// the BIP entirely.
func (b *builder) pruneDominatedPlans() {
	pruneSpace := func(space *planner.PlanSpace) {
		kept := make([]*planner.Plan, 0, len(space.Plans))
		keptSets := make([][]*schema.Index, 0, len(space.Plans))
		for _, pl := range space.Plans {
			set := pl.Indexes()
			dominated := false
			for _, ks := range keptSets {
				if len(ks) <= len(set) && subsetByID(ks, set) {
					dominated = true
					break
				}
			}
			if dominated {
				b.prunedPlans++
				continue
			}
			kept = append(kept, pl)
			keptSets = append(keptSets, set)
		}
		space.Plans = kept
	}
	for _, qb := range b.queries {
		pruneSpace(qb.space)
	}
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			pruneSpace(g.space)
		}
	}
}

// subsetByID reports whether every family in a has an ID in b. Plans
// read a handful of families, so nested scans beat building a set.
func subsetByID(a, b []*schema.Index) bool {
	for _, x := range a {
		found := false
		for _, y := range b {
			if y.ID() == x.ID() {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// buildUpdateBlock plans one write statement's maintenance against every
// modified pool candidate and groups its support queries. It touches no
// builder state shared with other goroutines: the maintenance-cost
// contributions come back in a private map the caller merges in workload
// order.
func (b *builder) buildUpdateBlock(ws *workload.WeightedStatement, enumRes *enumerator.Result) (*updateBlock, map[string]float64, error) {
	u := ws.Statement.(workload.WriteStatement)
	ub := &updateBlock{ws: ws, u: u, plans: map[string]*planner.UpdatePlan{}}
	maint := map[string]float64{}
	// Support queries of one update that share a path and
	// predicates differ only in which attributes they select (each
	// maintained family needs a different subset). The store
	// charges reads per row, not per cell, so the union query
	// costs the same and is planned once for the whole group.
	type pendingGroup struct {
		merged    *workload.Query
		originals []*workload.Query
		indexes   []*schema.Index
	}
	groupByShape := map[string]*pendingGroup{}
	var groupOrder []*pendingGroup
	var shape []byte
	for _, x := range b.pool {
		sqs, modified := enumRes.Support[u][x.ID()]
		if !modified {
			if !enumerator.Modifies(u, x) {
				continue
			}
			sqs = enumerator.SupportQueries(u, x)
		}
		up := b.pl.PlanUpdate(u, x)
		ub.plans[x.ID()] = up
		ub.order = append(ub.order, x)
		maint[x.ID()] += b.w.Weight(ws) * up.WriteCost
		for _, sq := range sqs {
			shape = appendShape(shape[:0], sq)
			g := groupByShape[string(shape)]
			if g == nil {
				g = &pendingGroup{merged: cloneQuery(sq)}
				groupByShape[string(shape)] = g
				groupOrder = append(groupOrder, g)
			} else {
				mergeSelects(g.merged, sq)
			}
			g.originals = append(g.originals, sq)
			g.indexes = append(g.indexes, x)
		}
	}
	for _, pg := range groupOrder {
		groups, err := b.planSupportGroup(pg.merged, pg.originals, pg.indexes)
		if err != nil {
			return nil, nil, err
		}
		ub.groups = append(ub.groups, groups...)
	}
	return ub, maint, nil
}

// pruneUnselectable removes candidates no plan in any plan space ever
// reads: they can never be selected (presence only costs), so they need
// no variables, no maintenance bookkeeping, and no support-group rows.
// This typically eliminates the large majority of the enumerated pool
// from the integer program.
func (b *builder) pruneUnselectable() {
	used := map[string]bool{}
	mark := func(space *planner.PlanSpace) {
		for _, pl := range space.Plans {
			for _, x := range pl.Indexes() {
				used[x.ID()] = true
			}
		}
	}
	for _, qb := range b.queries {
		mark(qb.space)
	}
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			mark(g.space)
		}
	}
	for _, ub := range b.updates {
		var order []*schema.Index
		for _, x := range ub.order {
			if used[x.ID()] {
				order = append(order, x)
			} else {
				delete(ub.plans, x.ID())
			}
		}
		ub.order = order
		var groups []*supportGroup
		for _, g := range ub.groups {
			var kept []*schema.Index
			for _, x := range g.indexes {
				if used[x.ID()] {
					kept = append(kept, x)
				}
			}
			if len(kept) > 0 {
				g.indexes = kept
				groups = append(groups, g)
			}
		}
		ub.groups = groups
	}
	for id := range b.maint {
		if !used[id] {
			delete(b.maint, id)
		}
	}
	var pool []*schema.Index
	for _, x := range b.pool {
		if used[x.ID()] {
			pool = append(pool, x)
		}
	}
	b.pool = pool
}

// planSupportGroup plans the merged support query; if the pool cannot
// answer the union (its attribute set may exceed any one family's), it
// falls back to planning each original query as its own group.
func (b *builder) planSupportGroup(merged *workload.Query, originals []*workload.Query, indexes []*schema.Index) ([]*supportGroup, error) {
	if space, err := b.pl.PlanQuery(merged); err == nil {
		b.capSupport(space)
		return []*supportGroup{{space: space, indexes: indexes}}, nil
	}
	var out []*supportGroup
	bySig := map[string]*supportGroup{}
	for i, sq := range originals {
		sig := enumerator.QuerySignature(sq)
		g := bySig[sig]
		if g == nil {
			space, err := b.pl.PlanQuery(sq)
			if err != nil {
				return nil, err
			}
			b.capSupport(space)
			g = &supportGroup{space: space}
			bySig[sig] = g
			out = append(out, g)
		}
		g.indexes = append(g.indexes, indexes[i])
	}
	return out, nil
}

func (b *builder) capSupport(space *planner.PlanSpace) {
	if len(space.Plans) > b.opt.MaxSupportPlans {
		space.Plans = space.Plans[:b.opt.MaxSupportPlans]
	}
}

// appendShape appends to b a canonical form of a query that ignores
// its SELECT list.
func appendShape(b []byte, q *workload.Query) []byte {
	b = append(q.Path.AppendTo(b), '/')
	for _, p := range q.Where {
		b = append(append(append(b, p.Ref.Attr.QualifiedName()...), p.Op.String()...), ';')
	}
	for _, o := range q.Order {
		b = append(append(b, '|'), o.Attr.QualifiedName()...)
	}
	return b
}

func cloneQuery(q *workload.Query) *workload.Query {
	cp := *q
	cp.Select = append([]workload.AttrRef(nil), q.Select...)
	return &cp
}

// mergeSelects unions src's selected attributes into dst.
func mergeSelects(dst, src *workload.Query) {
	have := map[workload.AttrRef]bool{}
	for _, s := range dst.Select {
		have[s] = true
	}
	for _, s := range src.Select {
		if !have[s] {
			have[s] = true
			dst.Select = append(dst.Select, s)
		}
	}
}

// paid reports whether an index needs a presence variable: it carries
// maintenance cost, a storage budget prices every index, or paidAll
// demands explicit presence for everything.
func (b *builder) paid(id string) bool {
	return b.paidAll || b.maint[id] > 0 || b.opt.SpaceBudgetBytes > 0
}

// emitter is what the formulation writes a program into: the program
// itself, or a counter that sizes it first. formulatePhase and the series
// linking in Prepared.emit are the only code that knows the program's rows
// and columns, and both write through it.
type emitter interface {
	AddRow(lo, hi float64) int
	AddBinary(obj float64, entries ...lp.Entry) int
	AddColEntry(col, row int, coef float64)
	NumCols() int
}

// counter is the emitter that only counts: the rows, and each column's
// entries, which is what bip.Program.Reserve takes.
type counter struct {
	rows int
	room []int
}

func (c *counter) AddRow(_, _ float64) int { c.rows++; return c.rows - 1 }

func (c *counter) AddBinary(_ float64, entries ...lp.Entry) int {
	c.room = append(c.room, len(entries))
	return len(c.room) - 1
}

func (c *counter) AddColEntry(col, _ int, _ float64) { c.room[col]++ }

func (c *counter) NumCols() int { return len(c.room) }

// formulatePhase emits one workload interval into e — presence columns,
// the storage row and its budget cuts, one choose row per query, the
// plan-to-presence link rows and the support-group gates — and fills refs,
// the interval's column map. It is the only formulation of that structure:
// the static program is one interval at scale 1 (an exact multiplication,
// so its objective is the raw workload cost, and phase 2 pins it, see
// Prepared.phase2), and the series program repeats it once per phase with
// scale set to the phase's duration share before linking the intervals
// (see Prepared.emit). sink, when non-nil, is told every column's unscaled
// cost, once per column in creation order.
func (b *builder) formulatePhase(e emitter, refs *colRefs, scale float64, sink func(raw float64)) {
	refs.zCol, refs.planVars = refs.zCol[:0], 0
	addBinary := func(raw float64, entries ...lp.Entry) int {
		col := e.AddBinary(scale*raw, entries...)
		if sink != nil {
			sink(raw)
		}
		return col
	}

	// Presence variables for paid indexes, and the budget cuts over them.
	storageRow := -1
	var items []budgetCutItem
	if b.opt.SpaceBudgetBytes > 0 {
		storageRow = e.AddRow(math.Inf(-1), b.opt.SpaceBudgetBytes/1e6)
	}
	for pos, x := range b.pool {
		refs.indexCol[pos] = -1
		if !b.paid(x.ID()) {
			continue
		}
		col := addBinary(b.maint[x.ID()])
		if storageRow >= 0 {
			e.AddColEntry(col, storageRow, x.SizeBytes()/1e6)
			items = append(items, budgetCutItem{pos: pos, sizeMB: x.SizeBytes() / 1e6})
		}
		refs.indexCol[pos] = col
	}
	var cuts []budgetCut
	if storageRow >= 0 {
		cuts = budgetCuts(items, b.opt.SpaceBudgetBytes/1e6)
	}
	for _, c := range cuts {
		row := e.AddRow(math.Inf(-1), c.hi)
		for _, it := range c.items {
			e.AddColEntry(refs.indexCol[it.pos], row, 1)
		}
	}
	b.cuts = len(cuts)

	// Plan choice variables with linking constraints to paid indexes,
	// aggregated per (plan space, index): a space's link rows are made in
	// the order its plans first read their families, and the families'
	// entries on them are added in ID order. It returns the space's first
	// column. The scratch is the builder's, kept across the passes.
	if b.seen == nil {
		b.linkRow, b.seen = make([]int, len(b.pool)), make([]int, len(b.pool))
	}
	addPlanVars := func(space *planner.PlanSpace, chooseRow int, weight float64) int {
		b.stamp++
		b.links = b.links[:0]
		first := e.NumCols()
		for _, plan := range space.Plans {
			b.entries = append(b.entries[:0], lp.Entry{Row: chooseRow, Coef: 1})
			for _, x := range plan.Indexes() {
				pos, ok := b.at[x.ID()]
				if !ok || refs.indexCol[pos] < 0 {
					continue
				}
				if b.seen[pos] != b.stamp {
					b.seen[pos] = b.stamp
					b.linkRow[pos] = e.AddRow(math.Inf(-1), 0)
					b.links = append(b.links, pos)
				}
				b.entries = append(b.entries, lp.Entry{Row: b.linkRow[pos], Coef: 1})
			}
			addBinary(weight*plan.Cost, b.entries...)
		}
		refs.planVars += len(space.Plans)
		slices.SortFunc(b.links, func(i, j int) int { return strings.Compare(b.pool[i].ID(), b.pool[j].ID()) })
		for _, pos := range b.links {
			e.AddColEntry(refs.indexCol[pos], b.linkRow[pos], -1)
		}
		return first
	}

	for i, qb := range b.queries {
		chooseRow := e.AddRow(1, 1)
		refs.queryCol[i] = addPlanVars(qb.space, chooseRow, b.w.Weight(qb.ws))
	}

	// Support query groups: an indicator z forced on by any modified
	// family, an equality gate choosing exactly z plans, and linking of
	// support plans to the paid families they read.
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			zCol := addBinary(0)
			refs.zCol = append(refs.zCol, zCol)
			gateRow := e.AddRow(0, 0)
			e.AddColEntry(zCol, gateRow, -1)
			// Sum of the group's modified families minus |group|·z <= 0:
			// any selected family forces z (and hence a support plan).
			// Aggregating keeps one row per group; integrality of z
			// makes the aggregate exact. Modified families always carry
			// maintenance cost, hence are always paid.
			force := e.AddRow(math.Inf(-1), 0)
			e.AddColEntry(zCol, force, -float64(len(g.indexes)))
			for _, x := range g.indexes {
				if pos, ok := b.at[x.ID()]; ok && refs.indexCol[pos] >= 0 {
					e.AddColEntry(refs.indexCol[pos], force, 1)
				}
			}
			addPlanVars(g.space, gateRow, b.w.Weight(ub.ws))
		}
	}
}

// budgetCutItem pairs a paid family, by pool position, with its storage
// footprint.
type budgetCutItem struct {
	pos    int
	sizeMB float64
}

// budgetCut is one valid inequality over presence variables: the
// presence of items sums to at most hi.
type budgetCut struct {
	items []budgetCutItem
	hi    float64
}

// budgetCuts tightens a storage-constrained formulation with simple
// families of valid inequalities over the presence variables — cuts the
// LP relaxation cannot see but every integer solution must satisfy:
//
//   - oversized: families alone exceeding the budget sum to ≤ 0 (the
//     relaxation would otherwise select them fractionally);
//   - clique: families each larger than half the budget are pairwise
//     exclusive, so at most one may be present;
//   - cover: the smallest big-first prefix whose total exceeds the
//     budget cannot be selected in full (Σ y ≤ k−1). The prefix is a
//     minimal cover by construction: dropping its smallest member
//     already fits the budget.
//
// Tightening the relaxation raises node bounds, so branch and bound
// prunes earlier. Item order is deterministic (size descending, caller
// order on ties); the cuts are returned in the order their rows are
// added.
func budgetCuts(items []budgetCutItem, budgetMB float64) []budgetCut {
	sorted := append([]budgetCutItem(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].sizeMB > sorted[j].sizeMB })
	var cuts []budgetCut

	var oversized, big []budgetCutItem
	for _, it := range sorted {
		switch {
		case it.sizeMB > budgetMB:
			oversized = append(oversized, it)
		case it.sizeMB > budgetMB/2:
			big = append(big, it)
		}
	}
	if len(oversized) > 0 {
		cuts = append(cuts, budgetCut{items: oversized, hi: 0})
	}
	if len(big) >= 2 {
		cuts = append(cuts, budgetCut{items: big, hi: 1})
	}

	// Greedy minimal cover over budget-feasible items.
	sum := 0.0
	var cover []budgetCutItem
	for _, it := range sorted[len(oversized):] {
		cover = append(cover, it)
		sum += it.sizeMB
		if sum > budgetMB {
			break
		}
	}
	if sum > budgetMB && len(cover) >= 2 {
		// A two-element cover of half-budget items is already the
		// clique cut (which is at least as strong).
		twoBig := len(cover) == 2 && cover[1].sizeMB > budgetMB/2 && len(big) >= 2
		if !twoBig {
			cuts = append(cuts, budgetCut{items: cover, hi: float64(len(cover) - 1)})
		}
	}
	return cuts
}

// greedySchema is the warm start's selection rule, by pool position:
// the paid families plan 0 of every query reads, and those plan 0 of
// every support group they force reads, to a fixpoint, since a support
// plan may read further paid families. Plan 0 is a space's cheapest, so
// evaluate gives each query and forced group its plan 0.
func (b *builder) greedySchema(refs *colRefs) []bool {
	selected := make([]bool, len(b.pool))
	mark := func(pl *planner.Plan) (grew bool) {
		for _, ix := range pl.Indexes() {
			if pos, ok := b.at[ix.ID()]; ok && refs.indexCol[pos] >= 0 && !selected[pos] {
				selected[pos], grew = true, true
			}
		}
		return grew
	}
	for _, qb := range b.queries {
		mark(qb.space.Plans[0])
	}
	for grew := true; grew; {
		grew = false
		for _, ub := range b.updates {
			for _, g := range ub.groups {
				if b.forces(g, refs, selected) && mark(g.space.Plans[0]) {
					grew = true
				}
			}
		}
	}
	return selected
}

// evaluate writes into x, over every column of one interval, the point
// the program implies when the paid families selected marks, by pool
// position, are the ones present (free families always are): each query
// takes its cheapest plan whose paid families are all present, each
// support group a present family forces takes its cheapest such plan,
// every other group stays off, and the presence columns follow selected.
// With presence fixed the program separates, so no point with that
// presence costs less. A query or forced group that no plan covers is
// left with none, which bip.Program.Eval reports infeasible.
func (b *builder) evaluate(x []float64, refs *colRefs, selected []bool) {
	for pos, col := range refs.indexCol {
		if col >= 0 {
			x[col] = 0
			if selected[pos] {
				x[col] = 1
			}
		}
	}
	// take sets the columns of space, from first on, to its first plan
	// that reads only present families, or to none when off.
	take := func(space *planner.PlanSpace, first int, on bool) {
		for k, pl := range space.Plans {
			x[first+k] = 0
			if on && b.covered(pl, refs, selected) {
				x[first+k], on = 1, false
			}
		}
	}
	for i, qb := range b.queries {
		take(qb.space, refs.queryCol[i], true)
	}
	gi := 0 // g's number
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			on := b.forces(g, refs, selected)
			x[refs.zCol[gi]] = 0
			if on {
				x[refs.zCol[gi]] = 1
			}
			take(g.space, refs.zCol[gi]+1, on)
			gi++
		}
	}
}

// covered reports whether every paid family pl reads is selected.
func (b *builder) covered(pl *planner.Plan, refs *colRefs, selected []bool) bool {
	for _, ix := range pl.Indexes() {
		if pos, ok := b.at[ix.ID()]; ok && refs.indexCol[pos] >= 0 && !selected[pos] {
			return false
		}
	}
	return true
}

// forces reports whether a selected paid family forces support group g
// on: the group's query runs once any family it maintains is present.
func (b *builder) forces(g *supportGroup, refs *colRefs, selected []bool) bool {
	for _, ix := range g.indexes {
		if pos, ok := b.at[ix.ID()]; ok && refs.indexCol[pos] >= 0 && selected[pos] {
			return true
		}
	}
	return false
}
