// Package planner generates the space of implementation plans for each
// workload statement over a pool of candidate column families (paper
// §IV-B, §IV-C). A query plan is a sequence of the application model's
// four primitive operations — index lookup (get), client-side filter,
// client-side sort, and id-chasing join (realized as further lookups
// driven by prior results) — and an update plan is a set of support
// query plans followed by delete and put requests.
package planner

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"nose/internal/model"
	"nose/internal/schema"
	"nose/internal/workload"
)

// Step is one primitive operation in a query implementation plan. The
// steps of generated plans are shared — between the plans of one space
// and between the spaces of one planner — and must not be modified.
type Step interface {
	// Describe renders the step for plan listings.
	Describe() string
	// signature is the step's canonical string. Plan generation builds
	// it once per class of steps sharing it, and only if ordering chains
	// comes to need it; it never contains '|'.
	signature() string
}

// LookupStep performs get requests against one column family. The first
// lookup of a plan binds its partition key from statement parameters;
// subsequent lookups are driven by ids produced earlier (the
// application-side join of paper §IV-B).
type LookupStep struct {
	// Index is the column family read by the step.
	Index *schema.Index
	// EqPredicates are the statement predicates bound in the partition
	// key by the get request.
	EqPredicates []workload.Predicate
	// JoinKey, when non-nil, is the entity key attribute bound from the
	// driving rows of the previous steps; the step issues one get per
	// driving row.
	JoinKey *model.Attribute
	// RangePredicate, when non-nil, is pushed into the get's clustering
	// key range.
	RangePredicate *workload.Predicate
	// ServesOrder records that the lookup returns rows already in the
	// query's requested order via its clustering key.
	ServesOrder bool
	// Limit, when positive, bounds the rows fetched by the get request
	// (only set on single-lookup plans whose ordering is served).
	Limit int
}

// Describe implements Step.
func (s *LookupStep) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lookup %s %s", s.Index.Name, s.Index)
	if s.JoinKey != nil {
		fmt.Fprintf(&b, " for each %s", s.JoinKey.QualifiedName())
	}
	for _, p := range s.EqPredicates {
		fmt.Fprintf(&b, " [%s]", p)
	}
	if s.RangePredicate != nil {
		fmt.Fprintf(&b, " [range %s]", *s.RangePredicate)
	}
	if s.ServesOrder {
		b.WriteString(" [ordered]")
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " [limit %d]", s.Limit)
	}
	return b.String()
}

func (s *LookupStep) signature() string {
	var b strings.Builder
	b.WriteString("L:")
	b.WriteString(s.Index.ID())
	if s.JoinKey != nil {
		b.WriteString("@" + s.JoinKey.QualifiedName())
	}
	for _, p := range s.EqPredicates {
		b.WriteString("=" + p.Ref.Attr.QualifiedName())
	}
	if s.RangePredicate != nil {
		b.WriteString("~" + s.RangePredicate.Ref.Attr.QualifiedName())
	}
	if s.ServesOrder {
		b.WriteString("!o")
	}
	return b.String()
}

// FilterStep applies predicates to the current rows client-side.
type FilterStep struct {
	// Predicates are the conditions applied.
	Predicates []workload.Predicate
}

// Describe implements Step.
func (s *FilterStep) Describe() string {
	parts := make([]string, len(s.Predicates))
	for i, p := range s.Predicates {
		parts[i] = p.String()
	}
	return "filter " + strings.Join(parts, " AND ")
}

func (s *FilterStep) signature() string {
	var b strings.Builder
	b.WriteString("F:")
	for _, p := range s.Predicates {
		b.WriteString(p.Ref.Attr.QualifiedName() + p.Op.String())
	}
	return b.String()
}

// SortStep orders the current rows client-side.
type SortStep struct {
	// By lists the ordering attributes in priority order.
	By []workload.AttrRef
}

// Describe implements Step.
func (s *SortStep) Describe() string {
	parts := make([]string, len(s.By))
	for i, a := range s.By {
		parts[i] = a.String()
	}
	return "sort by " + strings.Join(parts, ", ")
}

func (s *SortStep) signature() string {
	var b strings.Builder
	b.WriteString("S:")
	for _, a := range s.By {
		b.WriteString(a.Attr.QualifiedName() + ",")
	}
	return b.String()
}

// LimitStep truncates the current rows.
type LimitStep struct {
	// N is the maximum number of rows retained.
	N int
}

// Describe implements Step.
func (s *LimitStep) Describe() string { return fmt.Sprintf("limit %d", s.N) }

func (s *LimitStep) signature() string { return fmt.Sprintf("T:%d", s.N) }

// stepTable interns the steps one planner generates: every structurally
// distinct step exists once, immutable, for the planner's life, however
// many segments, statements and series phases ask for it. A step's
// structure is everything the executor reads — parameter names,
// operators, path positions and limits included — which is more than
// its signature string says, so each step also carries the class of its
// signature: chains are deduplicated and ordered by signature, exactly
// as when every PlanQuery built the strings itself. The string of a
// class is built when a cost tie first asks for it.
//
// Classes are numbered in arrival order, which differs from one worker
// interleaving to the next: a class number stands for equality and
// indexes the table, and nothing may sort, print or otherwise order by
// it.
type stepTable struct {
	mu sync.Mutex
	// lists numbers predicate sequences: a sequence is its last
	// predicate and the number of the sequence before it, 0 being empty.
	lists map[listKey]uint32
	steps map[stepKey]interned
	// classes numbers signatures, each keyed by the part of a step's
	// structure its signature spells out (classKey); reps holds a step
	// of each class and sigs its string, empty until asked for.
	classes map[stepKey]uint32
	reps    []Step
	sigs    []string
	// enrich memoises enrichStep per entity and attribute set.
	enrich map[*model.Entity][]enrichment
}

// interned is a canonical step with the class of its signature.
type interned struct {
	Step
	class uint32
}

type listKey struct {
	prev uint32
	pred workload.Predicate
}

// stepKey is a step's structure in comparable form, variable-length
// parts replaced by their list numbers.
type stepKey struct {
	kind    byte // 'L', 'F', 'S' or 'T', as in the signature
	index   *schema.Index
	joinKey *model.Attribute
	// list numbers EqPredicates, Predicates or By (as predicates with
	// only Ref set); pushed numbers the one-element RangePredicate.
	list, pushed uint32
	servesOrder  bool
	n            int // LookupStep.Limit or LimitStep.N
}

type enrichment struct {
	attrs []*model.Attribute
	step  interned
}

func (t *stepTable) init() {
	t.lists = map[listKey]uint32{}
	t.steps = map[stepKey]interned{}
	t.classes = map[stepKey]uint32{}
	t.enrich = map[*model.Entity][]enrichment{}
}

// list numbers a predicate sequence.
func (t *stepTable) list(preds []workload.Predicate) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.listLocked(preds)
}

func (t *stepTable) listLocked(preds []workload.Predicate) uint32 {
	var id uint32
	for _, pr := range preds {
		id = t.cons(id, pr)
	}
	return id
}

// cons numbers the sequence numbered prev followed by pr.
func (t *stepTable) cons(prev uint32, pr workload.Predicate) uint32 {
	k := listKey{prev, pr}
	id, ok := t.lists[k]
	if !ok {
		id = uint32(len(t.lists) + 1)
		t.lists[k] = id
	}
	return id
}

// attrList numbers the attributes of a predicate sequence, with or
// without their operators: what a signature says of the sequence.
func (t *stepTable) attrList(preds []workload.Predicate, ops bool) uint32 {
	var id uint32
	for _, pr := range preds {
		said := workload.Predicate{Ref: workload.AttrRef{Attr: pr.Ref.Attr}}
		if ops {
			said.Op = pr.Op
		}
		id = t.cons(id, said)
	}
	return id
}

// classKey reduces the structure k of step st to what st.signature()
// spells out: two steps have equal signatures exactly when their class
// keys are equal (an index's ID and an attribute's qualified name each
// name one pointer within a planner's pool).
func (t *stepTable) classKey(k stepKey, st Step) stepKey {
	switch s := st.(type) {
	case *LookupStep:
		k.list, k.pushed, k.n = t.attrList(s.EqPredicates, false), 0, 0
		if s.RangePredicate != nil {
			k.pushed = t.cons(0, workload.Predicate{Ref: workload.AttrRef{Attr: s.RangePredicate.Ref.Attr}})
		}
	case *FilterStep:
		k.list = t.attrList(s.Predicates, true)
	case *SortStep:
		k.list = 0
		for _, r := range s.By {
			k.list = t.cons(k.list, workload.Predicate{Ref: workload.AttrRef{Attr: r.Attr}})
		}
	}
	return k
}

// add makes st the canonical step of structure k. The caller holds mu.
func (t *stepTable) add(k stepKey, st Step) interned {
	ck := t.classKey(k, st)
	class, ok := t.classes[ck]
	if !ok {
		class = uint32(len(t.reps))
		t.classes[ck] = class
		t.reps = append(t.reps, st)
		t.sigs = append(t.sigs, "")
	}
	e := interned{st, class}
	t.steps[k] = e
	return e
}

// signature returns the signature string of a class.
func (t *stepTable) signature(class uint32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sigs[class] == "" {
		t.sigs[class] = t.reps[class].signature()
	}
	return t.sigs[class]
}

// lookup interns a lookup step given as a value the caller keeps: a new
// structure is copied, so ls may live on the caller's stack and be
// reused. eq and pushed must be the list numbers of ls.EqPredicates and
// of ls.RangePredicate, which callers generating many lookups over the
// same predicates compute once.
func (t *stepTable) lookup(ls *LookupStep, eq, pushed uint32) interned {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lookupLocked(ls, eq, pushed)
}

func (t *stepTable) lookupLocked(ls *LookupStep, eq, pushed uint32) interned {
	k := stepKey{kind: 'L', index: ls.Index, joinKey: ls.JoinKey, list: eq, pushed: pushed, servesOrder: ls.ServesOrder, n: ls.Limit}
	if e, ok := t.steps[k]; ok {
		return e
	}
	st := *ls
	return t.add(k, &st)
}

// lookupStep interns a lookup step whose predicate lists are not
// numbered yet.
func (t *stepTable) lookupStep(ls *LookupStep) interned {
	t.mu.Lock()
	defer t.mu.Unlock()
	var pushed uint32
	if ls.RangePredicate != nil {
		pushed = t.cons(0, *ls.RangePredicate)
	}
	return t.lookupLocked(ls, t.listLocked(ls.EqPredicates), pushed)
}

// filter interns the filter applying preds, which the step keeps.
func (t *stepTable) filter(preds []workload.Predicate) interned {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := stepKey{kind: 'F', list: t.listLocked(preds)}
	if e, ok := t.steps[k]; ok {
		return e
	}
	return t.add(k, &FilterStep{Predicates: preds})
}

// sort interns the sort by the given attributes, which the step keeps.
func (t *stepTable) sort(by []workload.AttrRef) interned {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := stepKey{kind: 'S'}
	for _, r := range by {
		k.list = t.cons(k.list, workload.Predicate{Ref: r})
	}
	if e, ok := t.steps[k]; ok {
		return e
	}
	return t.add(k, &SortStep{By: by})
}

// limit interns the truncation to n rows.
func (t *stepTable) limit(n int) interned {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := stepKey{kind: 'T', n: n}
	if e, ok := t.steps[k]; ok {
		return e
	}
	return t.add(k, &LimitStep{N: n})
}

// size returns the number of distinct steps interned.
func (t *stepTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.steps)
}

// enrichStep returns the id-keyed lookup supplying the given attributes
// of one entity — the pool family storing them all with the least read
// amplification — or a nil step when the pool has none. attrs is a set:
// no duplicates, order irrelevant.
func (p *Planner) enrichStep(e *model.Entity, attrs []*model.Attribute) interned {
	t := &p.table
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.enrich[e] {
		if len(m.attrs) == len(attrs) && containsAll(m.attrs, attrs) {
			return m.step
		}
	}
	var best *schema.Index
	for _, cf := range p.candidatesFor([]*model.Attribute{e.Key()}) {
		if !cf.ContainsAll(attrs) {
			continue
		}
		if best == nil || enrichBetter(cf, best, e) {
			best = cf
		}
	}
	var st interned
	if best != nil {
		st = t.lookupLocked(&LookupStep{Index: best, JoinKey: e.Key()}, 0, 0)
	}
	t.enrich[e] = append(t.enrich[e], enrichment{slices.Clone(attrs), st})
	return st
}

func containsAll(set, attrs []*model.Attribute) bool {
	for _, a := range attrs {
		if !slices.Contains(set, a) {
			return false
		}
	}
	return true
}
