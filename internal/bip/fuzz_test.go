package bip_test

import (
	"math"
	"math/rand"
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
)

// fuzzProgram is an all-binary program read from fuzz bytes, with the
// data exhaustive enumeration needs.
type fuzzProgram struct {
	p      *bip.Program
	obj    []float64
	rows   [][]float64
	lo, hi []float64
	opt    bip.Options
	seed   string // "none", "optimal", "poor" or "infeasible"
}

// byteReader hands out the fuzz input a byte at a time, zeros once it
// runs out.
type byteReader struct {
	data []byte
	at   int
}

func (r *byteReader) next() int {
	if r.at >= len(r.data) {
		return 0
	}
	r.at++
	return int(r.data[r.at-1])
}

// readFuzzProgram draws at most 12 binaries and 1 to 5 rows over
// coefficients in [-3, 3], each row ≤, ≥, an equality or a range; an
// objective of integers in [-8, 7], or of multiples of 1/64 (so two
// assignments' values are equal or at least 1/64 apart); a gap of 0 or
// up to 0.2; a node limit that is the default or 1 to 8 nodes; and one
// to three workers.
func readFuzzProgram(data []byte) *fuzzProgram {
	r := &byteReader{data: data}
	n := 1 + r.next()%12
	m := 1 + r.next()%5
	flags := r.next()
	fp := &fuzzProgram{}
	if flags&2 != 0 {
		fp.opt.Gap = float64(1+r.next()%20) / 100
	}
	if flags&4 != 0 {
		fp.opt.MaxNodes = 1 + r.next()%8
	}
	fp.opt.Workers = 1 + r.next()%3
	fp.seed = [4]string{"none", "optimal", "poor", "infeasible"}[flags>>3&3]

	fp.p = bip.New()
	fp.rows = make([][]float64, m)
	fp.lo, fp.hi = make([]float64, m), make([]float64, m)
	for i := range fp.rows {
		fp.rows[i] = make([]float64, n)
		neg, pos := 0.0, 0.0
		for j := range fp.rows[i] {
			c := float64(r.next()%7 - 3)
			fp.rows[i][j] = c
			if c < 0 {
				neg += c
			} else {
				pos += c
			}
		}
		// A right-hand side inside the row's reach, so that each sense
		// cuts the cube somewhere.
		rhs := neg + math.Floor(float64(r.next())/255*(pos-neg))
		lo, hi := math.Inf(-1), math.Inf(1)
		switch r.next() % 4 {
		case 0:
			hi = rhs
		case 1:
			lo = rhs
		case 2:
			lo, hi = rhs, rhs
		default:
			lo, hi = rhs-1, rhs+1
		}
		fp.lo[i], fp.hi[i] = lo, hi
		fp.p.AddRow(lo, hi)
	}
	fp.obj = make([]float64, n)
	for j := range fp.obj {
		if flags&1 == 0 {
			fp.obj[j] = float64(r.next()%16 - 8)
		} else {
			fp.obj[j] = float64(r.next()*4+r.next()%4-512) / 64
		}
		var es []lp.Entry
		for i := range fp.rows {
			if c := fp.rows[i][j]; c != 0 {
				es = append(es, lp.Entry{Row: i, Coef: c})
			}
		}
		fp.p.AddBinary(fp.obj[j], es...)
	}
	return fp
}

// enumeration is what exhaustive enumeration finds: the least and the
// greatest objective over the feasible assignments and a point reaching
// each, and the first infeasible assignment, nil when there is none.
type enumeration struct {
	feasible      bool
	best, worst   float64
	bestX, worstX []float64
	infeasibleX   []float64
}

// enumerate evaluates all 2ⁿ assignments.
func enumerate(obj []float64, rows [][]float64, lo, hi []float64) enumeration {
	n := len(obj)
	e := enumeration{best: math.Inf(1), worst: math.Inf(-1)}
	point := func(mask int) []float64 {
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(mask >> j & 1)
		}
		return x
	}
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		for i := range rows {
			act := 0.0
			for j := 0; j < n; j++ {
				if mask>>j&1 == 1 {
					act += rows[i][j]
				}
			}
			if act < lo[i] || act > hi[i] {
				ok = false
				break
			}
		}
		if !ok {
			if e.infeasibleX == nil {
				e.infeasibleX = point(mask)
			}
			continue
		}
		val := 0.0
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				val += obj[j]
			}
		}
		e.feasible = true
		if val < e.best {
			e.best, e.bestX = val, point(mask)
		}
		if val > e.worst {
			e.worst, e.worstX = val, point(mask)
		}
	}
	return e
}

// checkAgainstEnumeration solves fp and holds the answer to exhaustive
// enumeration: the status, the objective to 1e-9 (within the gap when
// one is set), a point that is binary, feasible and costs the objective,
// and a bound that never lies above the optimum by more than the slack
// the search prunes with — the incumbent itself when the search ran to
// completion.
func checkAgainstEnumeration(t *testing.T, fp *fuzzProgram) {
	t.Helper()
	e := enumerate(fp.obj, fp.rows, fp.lo, fp.hi)
	opt := fp.opt
	switch fp.seed {
	case "optimal":
		opt.Incumbent = e.bestX
	case "poor":
		opt.Incumbent = e.worstX
	case "infeasible":
		opt.Incumbent = e.infeasibleX
	}
	res, err := fp.p.Solve(opt)
	if err != nil {
		t.Fatalf("%+v: %v", fp.opt, err)
	}
	truncated := res.Status == bip.NodeLimit
	if truncated && fp.opt.MaxNodes == 0 {
		t.Fatalf("%+v: stopped at the node limit without one", fp.opt)
	}
	if !e.feasible {
		if res.HasSolution || (res.Status != bip.Infeasible && !truncated) {
			t.Fatalf("%+v: %v with solution %v, enumeration finds no feasible point", fp.opt, res.Status, res.HasSolution)
		}
		return
	}
	if !res.HasSolution {
		if !truncated {
			t.Fatalf("%+v: %v without a solution, enumeration finds optimum %v", fp.opt, res.Status, e.best)
		}
		return
	}
	// What pruning may leave unexplored: a relative gap, taken of an
	// incumbent no better than the optimum, or the search's absolute
	// tolerance.
	slack := math.Max(1e-7, fp.opt.Gap*math.Abs(e.best)/(1-fp.opt.Gap)) + 1e-9
	if fp.opt.Gap == 0 && !truncated {
		slack = 1e-9
	}
	if res.Objective < e.best-1e-9 || (res.Objective > e.best+slack && !truncated) {
		t.Fatalf("%+v: %v objective %v, enumeration %v", fp.opt, res.Status, res.Objective, e.best)
	}
	if res.Bound > e.best+slack || res.Bound > res.Objective {
		t.Fatalf("%+v: %v bound %v, optimum %v, objective %v do not nest", fp.opt, res.Status, res.Bound, e.best, res.Objective)
	}
	if !truncated && res.Bound != res.Objective {
		t.Fatalf("%+v: bound %v of a completed search with objective %v", fp.opt, res.Bound, res.Objective)
	}
	val := 0.0
	for j, v := range res.X {
		if v != 0 && v != 1 {
			t.Fatalf("%+v: x[%d] = %v", fp.opt, j, v)
		}
		val += fp.obj[j] * v
	}
	for i, row := range fp.rows {
		act := 0.0
		for j, c := range row {
			act += c * res.X[j]
		}
		if act < fp.lo[i] || act > fp.hi[i] {
			t.Fatalf("%+v: row %d activity %v outside [%v, %v]", fp.opt, i, act, fp.lo[i], fp.hi[i])
		}
	}
	if math.Abs(val-res.Objective) > 1e-9 {
		t.Fatalf("%+v: the point costs %v, the objective is %v", fp.opt, val, res.Objective)
	}
}

// FuzzBIPAgainstBruteForce holds Solve to exhaustive enumeration on
// byte-derived programs of at most 12 binaries: mixed row senses,
// integer and real objectives, exact and gapped searches, complete and
// truncated ones, with no seed, an optimal, a poor or an infeasible
// seeded incumbent, at one to three workers. Every branch and bound
// shortcut — bound rounding, reduced-cost fixing, pruning at the gap —
// is exact or stays within the slack it is allowed. The plain test run
// checks the seed corpus and 400 random programs.
func FuzzBIPAgainstBruteForce(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		data := make([]byte, 2+rng.Intn(120))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstEnumeration(t, readFuzzProgram(data))
	})
}
