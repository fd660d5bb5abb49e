package executor

import (
	"fmt"
	"slices"
	"sort"

	"nose/internal/backend"
	"nose/internal/model"
	"nose/internal/planner"
	"nose/internal/search"
	"nose/internal/workload"
)

// program is the compiled, immutable form of a query plan or of one
// update recommendation: every name an interpreter would hash per row
// is resolved once to a parameter index or to a slot of the statement's
// row layout. Only attributes something reads get a slot, and column
// names come from backend.DefFromIndex, so running a program never asks
// the store for a definition. A lookup moves a fetched cell into its
// slot only when a later step reads the slot (compiler.finish), and
// moves that only the projection reads come last in its move list.
type program struct {
	params []string           // names of the parameters read; parameter i
	attrs  []*model.Attribute // the attribute each parameter is first used for; its binding is coerced to that type
	width  int                // slots per row
	plans  [][]any            // per plan (the query's, or each support plan's) its *lookupOp, filterOp, sortOp and limitOp steps

	proj []int    // query: slots of the result columns
	cols *columns // query: the result rows' header

	binds              []ref  // write: parameters the statement must bind, each seeding its slot (-1: none)
	cf                 string // write: the maintained family, its record's cells in definition order,
	cells              []cell // cells[:nPart] the partition key, cells[nPart:nKey] the clustering key
	nPart, nKey        int
	doDelete, doInsert bool
}

type (
	filterOp []pred
	sortOp   []int // slots in priority order
	limitOp  int
)

// lookupOp is a compiled LookupStep: one get per driving row. Each
// fetched record extends its driving row by moves; a lookup that runs
// no move appends the driving row itself.
type lookupOp struct {
	cf         string
	cols       []string // partition column names, for diagnostics
	part       []ref    // each partition column's value: param if bound (never set for the join key), else the row's slot
	rangeOp    backend.RangeOp
	rangeParam int // -1 without a range predicate
	limit      int
	// moves are the fetched cells a later step reads, each with the
	// slot it lands in. moves[:live] feed a later lookup, filter or
	// sort, or a write's cells; moves[live:] feed only the projection,
	// and a run that builds no rows skips them.
	moves []move
	live  int
}

// move copies one fetched cell into a row: cell from of the partition
// key, the clustering key or the values, by src, into slot to.
type move struct {
	src      moveSrc
	from, to int
}

type moveSrc uint8

const (
	fromPart moveSrc = iota
	fromClus
	fromVals
)

// sources are a definition's column names by moveSrc.
func sources(def backend.ColumnFamilyDef) [3][]string {
	return [...][]string{fromPart: def.PartitionCols, fromClus: def.ClusteringCols, fromVals: def.ValueCols}
}

// ref names a parameter and a slot; either is -1 when there is none.
type ref struct{ param, slot int }

type pred struct {
	ref // row[slot] op parameter
	op  workload.Op
}

// cell is one cell of a written record: the new value an UPDATE assigns
// (param; puts only), else the row's slot, else the type's zero value.
type cell struct {
	ref
	zero backend.Value
}

var rangeOps = map[workload.Op]backend.RangeOp{
	workload.Gt: backend.GT, workload.Ge: backend.GE, workload.Lt: backend.LT, workload.Le: backend.LE,
}

// compiler numbers parameters and slots while walking a statement's
// plans in execution order.
type compiler struct {
	prog          *program
	params, slots map[string]int
	lookups       []*lookupOp               // in execution order, with their definitions: moves
	defs          []backend.ColumnFamilyDef // wait until every reader has claimed its slot
}

func newCompiler() *compiler {
	return &compiler{prog: &program{}, params: map[string]int{}, slots: map[string]int{}}
}

// number returns name's index in m, the next free one at first sight.
func number(m map[string]int, name string) int {
	if _, ok := m[name]; !ok {
		m[name] = len(m)
	}
	return m[name]
}

// param numbers a parameter, keeping the attribute it is first used for.
func (c *compiler) param(name string, a *model.Attribute) int {
	if _, ok := c.params[name]; !ok {
		c.prog.attrs = append(c.prog.attrs, a)
	}
	return number(c.params, name)
}

func (c *compiler) slot(name string) int { return number(c.slots, name) }

// plan compiles one step sequence onto the end of the program.
func (c *compiler) plan(steps []planner.Step) error {
	ops := make([]any, len(steps))
	for i, st := range steps {
		switch s := st.(type) {
		case *planner.LookupStep:
			o, err := c.lookup(s)
			if err != nil {
				return err
			}
			ops[i] = o
		case *planner.FilterStep:
			f := make(filterOp, len(s.Predicates))
			for j, p := range s.Predicates {
				f[j] = pred{ref{c.param(p.Param, p.Ref.Attr), c.slot(p.Ref.Attr.QualifiedName())}, p.Op}
			}
			ops[i] = f
		case *planner.SortStep:
			by := make(sortOp, len(s.By))
			for j, a := range s.By {
				by[j] = c.slot(a.Attr.QualifiedName())
			}
			ops[i] = by
		case *planner.LimitStep:
			ops[i] = limitOp(s.N)
		default:
			return fmt.Errorf("unknown step %T", st)
		}
	}
	c.prog.plans = append(c.prog.plans, ops)
	return nil
}

func (c *compiler) lookup(s *planner.LookupStep) (*lookupOp, error) {
	def := backend.DefFromIndex(s.Index)
	o := &lookupOp{cf: def.Name, cols: def.PartitionCols, rangeParam: -1, limit: s.Limit}
	eq := map[string]workload.Predicate{} // by qualified attribute
	for _, p := range s.EqPredicates {
		eq[p.Ref.Attr.QualifiedName()] = p
	}
	for _, col := range def.PartitionCols {
		src := ref{-1, c.slot(col)}
		if p, ok := eq[col]; ok && (s.JoinKey == nil || col != s.JoinKey.QualifiedName()) {
			src.param = c.param(p.Param, p.Ref.Attr)
		}
		o.part = append(o.part, src)
	}
	if rp := s.RangePredicate; rp != nil {
		op, ok := rangeOps[rp.Op]
		if !ok {
			return nil, fmt.Errorf("operator %v is not a range", rp.Op)
		}
		o.rangeOp, o.rangeParam = op, c.param(rp.Param, rp.Ref.Attr)
	}
	c.lookups, c.defs = append(c.lookups, o), append(c.defs, def)
	return o, nil
}

// finish fixes the parameter table and the row width, and gives every
// lookup its moves by a backward walk over the program's steps that
// tracks which slots a later step reads. Two sets are walked together:
// live omits the projection's reads and seen includes them, so a move
// into a slot in live is needed by every run and one into a slot only in
// seen by the projection alone. A write's cells are read after its last
// plan; a lookup kills the slots it moves into and then reads its
// partition sources.
func (c *compiler) finish() *program {
	p := c.prog
	p.width = len(c.slots)
	live, seen := make([]bool, p.width), make([]bool, p.width)
	read := func(slot int) { live[slot], seen[slot] = true, true }
	for _, cl := range p.cells {
		read(cl.slot)
	}
	for _, slot := range p.proj {
		seen[slot] = true
	}
	k := len(c.lookups)
	for i := len(p.plans) - 1; i >= 0; i-- {
		for j := len(p.plans[i]) - 1; j >= 0; j-- {
			switch o := p.plans[i][j].(type) {
			case *lookupOp:
				k--
				c.moves(o, c.defs[k], live, seen)
				for _, src := range o.part {
					read(src.slot)
				}
			case filterOp:
				for _, pr := range o {
					read(pr.slot)
				}
			case sortOp:
				for _, slot := range o {
					read(slot)
				}
			}
		}
	}
	p.params = make([]string, len(c.params))
	for name, i := range c.params {
		p.params[i] = name
	}
	return p
}

// moves fills o's move list from the slots read after it, and kills
// those slots. A partition column its driving row supplies is already
// in its slot, so only one a parameter supplies is moved.
func (c *compiler) moves(o *lookupOp, def backend.ColumnFamilyDef, live, seen []bool) {
	var tail []move
	for src, cols := range sources(def) {
		for from, col := range cols {
			to, ok := c.slots[col]
			if !ok || moveSrc(src) == fromPart && o.part[from].param < 0 {
				continue
			}
			if m := (move{moveSrc(src), from, to}); live[to] {
				o.moves = append(o.moves, m)
			} else if seen[to] {
				tail = append(tail, m)
			}
		}
	}
	o.live = len(o.moves)
	o.moves = append(o.moves, tail...)
	for _, m := range o.moves {
		live[m.to], seen[m.to] = false, false
	}
}

// compileQuery lowers a query plan: its steps, then the projection to
// the selected plus the ordering attributes, columns in name order.
func compileQuery(plan *planner.Plan) (*program, error) {
	c := newCompiler()
	if err := c.plan(plan.Steps); err != nil {
		return nil, err
	}
	c.prog.cols = newColumns(plan.Query.Select, plan.Query.Order)
	for _, name := range c.prog.cols.names {
		c.prog.proj = append(c.prog.proj, c.slot(name))
	}
	return c.finish(), nil
}

// newColumns builds the header of a query's result rows.
func newColumns(refs ...[]workload.AttrRef) *columns {
	cols := &columns{}
	for _, rs := range refs {
		for _, r := range rs {
			if name := r.Attr.QualifiedName(); !slices.Contains(cols.names, name) {
				cols.names = append(cols.names, name)
			}
		}
	}
	sort.Strings(cols.names)
	return cols
}

// compileWrite lowers one update recommendation: the parameters that
// seed its first row (and an UPDATE's new values), its support plans
// chained over that row, and the maintained family's record cells.
func compileWrite(ur *search.UpdateRecommendation) (*program, error) {
	c := newCompiler()
	p := c.prog
	overrides := map[string]int{}
	seed := func(a *model.Attribute, param string) {
		p.binds = append(p.binds, ref{c.param(param, a), c.slot(a.QualifiedName())})
	}
	seedKey := func(where []workload.Predicate, key *model.Attribute) {
		for _, w := range where {
			if w.Op == workload.Eq && w.Ref.Attr == key {
				seed(key, w.Param)
			}
		}
	}
	switch st := ur.Plan.Statement.(type) {
	case *workload.Update:
		p.doDelete, p.doInsert = true, true
		for _, asg := range st.Set {
			overrides[asg.Attr.QualifiedName()] = c.param(asg.Param, asg.Attr)
			p.binds = append(p.binds, ref{c.param(asg.Param, asg.Attr), -1})
		}
		seedKey(st.Where, st.Entity().Key())
	case *workload.Delete:
		p.doDelete = true
		seedKey(st.Where, st.Entity().Key())
	case *workload.Insert:
		p.doInsert = true
		seed(st.Entity.Key(), st.KeyParam)
		for _, asg := range st.Set {
			seed(asg.Attr, asg.Param)
		}
		for _, conn := range st.Connections {
			seed(conn.Edge.To.Key(), conn.Param)
		}
	case *workload.Connect:
		p.doDelete, p.doInsert = st.Disconnect, !st.Disconnect
		seed(st.Edge.From.Key(), st.FromParam)
		seed(st.Edge.To.Key(), st.ToParam)
	default:
		return nil, fmt.Errorf("executor: unsupported statement %T", st)
	}
	for _, sp := range ur.SupportPlans {
		if err := c.plan(sp.Steps); err != nil {
			return nil, fmt.Errorf("executor: support query for %q: %w", workload.Label(ur.Plan.Statement), err)
		}
	}
	x := ur.Plan.Index
	p.cf, p.nPart, p.nKey = x.Name, len(x.Partition), len(x.Partition)+len(x.Clustering)
	for _, attrs := range [][]*model.Attribute{x.Partition, x.Clustering, x.Values} {
		for _, a := range attrs {
			cl := cell{ref{-1, c.slot(a.QualifiedName())}, backend.ZeroValue(a.Type)}
			if i, ok := overrides[a.QualifiedName()]; ok {
				cl.param = i
			}
			p.cells = append(p.cells, cl)
		}
	}
	return c.finish(), nil
}
