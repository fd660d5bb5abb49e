package search

import (
	"math"
	"sort"

	"nose/internal/bip"
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

// builder holds everything needed to formulate the BIP (possibly
// twice: once per solver phase).
type builder struct {
	w       *workload.Workload
	pl      *planner.Planner
	pool    []*schema.Index
	queries []*queryBlock
	updates []*updateBlock
	opt     Options

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
	// maintenance-free families.
	paidAll bool

	// prunedPlans counts plans removed by dominance pruning and cuts
	// counts cutting-plane rows added during formulation; both feed the
	// obs registry.
	prunedPlans int
	cuts        int
}

// colRefs maps BIP columns back to schema objects and plans.
type colRefs struct {
	indexCol map[string]int // paid index ID -> column
	// planCols records (owner, plan) per plan-choice column.
	planCols map[int]planRef
	// planCol is the reverse lookup: plan pointer -> column.
	planCol map[*planner.Plan]int
	// zCol is each support group's indicator column.
	zCol map[*supportGroup]int
}

type planRef struct {
	query *queryBlock   // non-nil for workload query plans
	group *supportGroup // non-nil for support query plans
	ub    *updateBlock  // owner of group
	plan  *planner.Plan
}

// newBuilder plans every query and update in the workload. Plan-space
// generation fans across a bounded worker pool: queries fill
// index-addressed slots and update blocks are built independently, with
// their maintenance-cost contributions merged in workload order so
// floating-point accumulation is bit-identical for every worker count.
func newBuilder(w *workload.Workload, pl *planner.Planner, enumRes *enumerator.Result, opt Options) (*builder, error) {
	b := &builder{w: w, pl: pl, pool: pl.Pool().Indexes(), opt: opt, maint: map[string]float64{}}
	workers := par.Workers(opt.Workers)

	qws := w.Queries()
	qblocks := make([]*queryBlock, len(qws))
	qerrs := make([]error, len(qws))
	par.Do(len(qws), workers, func(i int) {
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
	par.Do(len(uws), workers, func(i int) {
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
	b.pruneUnselectable()
	return b, nil
}

// pruneDominatedPlans drops every plan whose index set is a superset of
// an earlier (hence cheaper-or-equal: plan spaces are sorted by cost
// with a deterministic tiebreak) plan's in the same space. The removal
// is exact for both solver phases and for plan-level failover: wherever
// the dominated plan is feasible or executable, the dominating plan is
// too, at no greater cost, and it is ranked first. Shrinking the plan
// spaces before formulation removes their columns and linking rows from
// the BIP entirely.
func (b *builder) pruneDominatedPlans() {
	pruneSpace := func(space *planner.PlanSpace) {
		kept := make([]*planner.Plan, 0, len(space.Plans))
		keptSets := make([]map[string]bool, 0, len(space.Plans))
		for _, pl := range space.Plans {
			set := map[string]bool{}
			for _, x := range pl.Indexes() {
				set[x.ID()] = true
			}
			dominated := false
			for _, ks := range keptSets {
				if len(ks) > len(set) {
					continue
				}
				subset := true
				for id := range ks {
					if !set[id] {
						subset = false
						break
					}
				}
				if subset {
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
	var groupOrder []string
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
			shape := shapeSignature(sq)
			g := groupByShape[shape]
			if g == nil {
				g = &pendingGroup{merged: cloneQuery(sq)}
				groupByShape[shape] = g
				groupOrder = append(groupOrder, shape)
			} else {
				mergeSelects(g.merged, sq)
			}
			g.originals = append(g.originals, sq)
			g.indexes = append(g.indexes, x)
		}
	}
	for _, shape := range groupOrder {
		pg := groupByShape[shape]
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

// shapeSignature canonicalizes a query ignoring its SELECT list.
func shapeSignature(q *workload.Query) string {
	sig := q.Path.String() + "/"
	for _, p := range q.Where {
		sig += p.Ref.Attr.QualifiedName() + p.Op.String() + ";"
	}
	for _, o := range q.Order {
		sig += "|" + o.Attr.QualifiedName()
	}
	return sig
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
// maintenance cost, a storage budget prices every index, or the series
// formulation demands explicit presence for everything.
func (b *builder) paid(id string) bool {
	return b.paidAll || b.maint[id] > 0 || b.opt.SpaceBudgetBytes > 0
}

// formulate builds the static BIP. With pinCost nil it minimizes
// weighted workload cost; with pinCost set it constrains the cost to
// that value and minimizes the number of paid column families (paper
// §V's second phase; free families enter the schema only when a chosen
// plan uses them, so they need no minimization).
func (b *builder) formulate(pinCost *float64) (*bip.Program, *colRefs) {
	prog := bip.New()
	costRow := -1
	if pinCost != nil {
		slack := math.Max(1e-6, 1e-9*math.Abs(*pinCost))
		costRow = prog.AddRow(math.Inf(-1), *pinCost+slack)
	}
	return prog, b.formulatePhase(prog, 1, costRow, nil)
}

// formulatePhase emits one workload interval into prog — presence
// columns, the storage row and its budget cuts, one choose row per
// query, the plan-to-presence link rows and the support-group gates —
// and returns the interval's column map. It is the only formulation of
// that structure: the static program is one interval at scale 1 (an
// exact multiplication, so its objective is the raw workload cost), and
// the series program repeats it once per phase with scale set to the
// phase's duration share before linking the intervals (see
// seriesBuilder.formulate). With costRow >= 0 every workload cost
// coefficient moves onto that row and the objective becomes the number
// of paid families. sink, when non-nil, is told every column's unscaled
// cost, once per column in creation order.
func (b *builder) formulatePhase(prog *bip.Program, scale float64, costRow int, sink func(raw float64)) *colRefs {
	refs := &colRefs{
		indexCol: map[string]int{},
		planCols: map[int]planRef{},
		planCol:  map[*planner.Plan]int{},
		zCol:     map[*supportGroup]int{},
	}
	price := func(entries []lp.Entry, raw float64) ([]lp.Entry, float64) {
		c := scale * raw
		if costRow >= 0 && c != 0 {
			return append(entries, lp.Entry{Row: costRow, Coef: c}), 0
		}
		return entries, c
	}
	addBinary := func(obj, raw float64, entries ...lp.Entry) int {
		col := prog.AddBinary(obj, entries...)
		if sink != nil {
			sink(raw)
		}
		return col
	}

	// Presence variables for paid indexes.
	budgetMB := b.opt.SpaceBudgetBytes / 1e6
	storageRow := -1
	if b.opt.SpaceBudgetBytes > 0 {
		storageRow = prog.AddRow(math.Inf(-1), budgetMB)
	}
	var items []budgetCutItem
	for _, x := range b.pool {
		if !b.paid(x.ID()) {
			continue
		}
		var entries []lp.Entry
		if storageRow >= 0 {
			entries = append(entries, lp.Entry{Row: storageRow, Coef: x.SizeBytes() / 1e6})
		}
		raw := b.maint[x.ID()]
		entries, obj := price(entries, raw)
		if costRow >= 0 {
			obj = 1 // phase 2 minimizes the number of paid families
		}
		col := addBinary(obj, raw, entries...)
		refs.indexCol[x.ID()] = col
		if storageRow >= 0 {
			items = append(items, budgetCutItem{col: col, sizeMB: x.SizeBytes() / 1e6})
		}
	}
	if storageRow >= 0 {
		b.cuts += addBudgetCuts(prog, items, budgetMB)
	}

	// Plan choice variables with linking constraints to paid indexes,
	// aggregated per (plan space, index).
	addPlanVars := func(space *planner.PlanSpace, chooseRow int, weight float64, mk func(*planner.Plan) planRef) {
		linkRow := map[string]int{}
		var linkOrder []string
		for _, plan := range space.Plans {
			entries := []lp.Entry{{Row: chooseRow, Coef: 1}}
			for _, x := range plan.Indexes() {
				if !b.paid(x.ID()) {
					continue
				}
				r, ok := linkRow[x.ID()]
				if !ok {
					r = prog.AddRow(math.Inf(-1), 0)
					linkRow[x.ID()] = r
					linkOrder = append(linkOrder, x.ID())
				}
				entries = append(entries, lp.Entry{Row: r, Coef: 1})
			}
			raw := weight * plan.Cost
			entries, obj := price(entries, raw)
			col := addBinary(obj, raw, entries...)
			refs.planCols[col] = mk(plan)
			refs.planCol[plan] = col
		}
		sort.Strings(linkOrder)
		for _, id := range linkOrder {
			prog.AddColEntry(refs.indexCol[id], linkRow[id], -1)
		}
	}

	for _, qb := range b.queries {
		chooseRow := prog.AddRow(1, 1)
		addPlanVars(qb.space, chooseRow, b.w.Weight(qb.ws), func(pl *planner.Plan) planRef {
			return planRef{query: qb, plan: pl}
		})
	}

	// Support query groups: an indicator z forced on by any modified
	// family, an equality gate choosing exactly z plans, and linking of
	// support plans to the paid families they read.
	for _, ub := range b.updates {
		for _, g := range ub.groups {
			zCol := addBinary(0, 0)
			refs.zCol[g] = zCol
			gateRow := prog.AddRow(0, 0)
			prog.AddColEntry(zCol, gateRow, -1)
			// Sum of the group's modified families minus |group|·z <= 0:
			// any selected family forces z (and hence a support plan).
			// Aggregating keeps one row per group; integrality of z
			// makes the aggregate exact. Modified families always carry
			// maintenance cost, hence are always paid.
			force := prog.AddRow(math.Inf(-1), 0)
			prog.AddColEntry(zCol, force, -float64(len(g.indexes)))
			for _, x := range g.indexes {
				prog.AddColEntry(refs.indexCol[x.ID()], force, 1)
			}
			addPlanVars(g.space, gateRow, b.w.Weight(ub.ws), func(pl *planner.Plan) planRef {
				return planRef{group: g, ub: ub, plan: pl}
			})
		}
	}
	return refs
}

// budgetCutItem pairs a presence column with its storage footprint.
type budgetCutItem struct {
	col    int
	sizeMB float64
}

// addBudgetCuts tightens a storage-constrained formulation with simple
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
// order on ties); it returns the number of cut rows added.
func addBudgetCuts(prog *bip.Program, items []budgetCutItem, budgetMB float64) int {
	sorted := append([]budgetCutItem(nil), items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].sizeMB > sorted[j].sizeMB })
	cuts := 0

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
		row := prog.AddRow(math.Inf(-1), 0)
		for _, it := range oversized {
			prog.AddColEntry(it.col, row, 1)
		}
		cuts++
	}
	if len(big) >= 2 {
		row := prog.AddRow(math.Inf(-1), 1)
		for _, it := range big {
			prog.AddColEntry(it.col, row, 1)
		}
		cuts++
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
			row := prog.AddRow(math.Inf(-1), float64(len(cover)-1))
			for _, it := range cover {
				prog.AddColEntry(it.col, row, 1)
			}
			cuts++
		}
	}
	return cuts
}

// greedyPhase writes a feasible warm-start assignment for one interval
// into x and returns the paid families it selects: every query takes
// its cheapest plan, the paid families those plans read are selected,
// and every group forced by a selected family takes its cheapest
// support plan — iterated to a fixpoint since support plans may read
// further paid families.
func (b *builder) greedyPhase(x []float64, refs *colRefs) map[string]bool {
	selected := map[string]bool{}
	markPaid := func(pl *planner.Plan) {
		for _, ix := range pl.Indexes() {
			if b.paid(ix.ID()) {
				selected[ix.ID()] = true
			}
		}
	}
	for _, qb := range b.queries {
		pl := qb.space.Plans[0]
		x[refs.planCol[pl]] = 1
		markPaid(pl)
	}
	chosen := map[*supportGroup]bool{}
	for changed := true; changed; {
		changed = false
		for _, ub := range b.updates {
			for _, g := range ub.groups {
				if chosen[g] {
					continue
				}
				forced := false
				for _, ix := range g.indexes {
					if selected[ix.ID()] {
						forced = true
						break
					}
				}
				if !forced {
					continue
				}
				chosen[g] = true
				changed = true
				pl := g.space.Plans[0]
				x[refs.planCol[pl]] = 1
				x[refs.zCol[g]] = 1
				markPaid(pl)
			}
		}
	}
	for id := range selected {
		x[refs.indexCol[id]] = 1
	}
	return selected
}
