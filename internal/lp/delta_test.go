package lp_test

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nose/internal/bip"
	"nose/internal/lp"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
)

// TestDeltaSnapshotsFlattenToWhole checks every snapshot branch and
// bound takes on four inputs: RUBiS's bidding mix at the daemon's
// defaults and under a 12 MB space budget, randwork factor 3 seed 42 at
// the benchmark's advisor options, and FuzzBIPAgainstBruteForce's corpus
// of programs, searched without its seeded incumbents. Of each snapshot:
//
//   - it flattens, bit for bit, to the statuses, basis order and
//     artificial signs of the same basis taken whole;
//   - one taken after a cold solve, or after a load that prepended rows
//     (phase 2's root), is whole;
//   - a delta, loaded back into its problem with its solve's fixes,
//     leaves a solver in the state, and with the solution, that a load
//     of the whole snapshot does (lp.SameSolverState), and the load
//     allocates nothing once the solver's scratch has grown.
func TestDeltaSnapshotsFlattenToWhole(t *testing.T) {
	bidding, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	randw, err := randwork.Generate(randwork.Config{Factor: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	daemon := search.Options{Workers: 1, Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery}}
	budgeted := daemon
	budgeted.SpaceBudgetBytes = 12e6
	bench := search.Options{
		Workers:         1,
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}

	for _, in := range []struct {
		name string
		run  func() error
		// prepended: the input runs a second phase, whose root loads
		// the first's root snapshot under a leading row.
		prepended bool
	}{
		{"rubis-bidding", func() error { _, err := search.Advise(bidding, daemon); return err }, true},
		{"rubis-bidding-12MB", func() error { _, err := search.Advise(bidding, budgeted); return err }, true},
		{"randwork-f3-s42", func() error { _, err := search.Advise(randw, bench); return err }, true},
		{"bip-fuzz-corpus", func() error {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 400; i++ {
				data := make([]byte, 2+rng.Intn(120))
				rng.Read(data)
				p, opt := fuzzCorpusProgram(data)
				if _, err := p.Solve(opt); err != nil {
					return err
				}
			}
			return nil
		}, false},
	} {
		t.Run(in.name, func(t *testing.T) {
			counts := checkSnapshots(t, in.run)
			t.Logf("%v", counts)
			if t.Failed() {
				return
			}
			if counts["delta"] == 0 || counts["cold"] == 0 || (in.prepended && counts["prepended"] == 0) {
				t.Errorf("snapshots by kind %v: want deltas, cold ones and, with a second phase, prepended ones", counts)
			}
		})
	}
}

// checkSnapshots runs run with every snapshot checked as
// TestDeltaSnapshotsFlattenToWhole says, and counts the snapshots by how
// their solve loaded ("cold", "prepended", "warm") and the deltas among
// them.
func checkSnapshots(t *testing.T, run func() error) map[string]int {
	t.Helper()
	counts := map[string]int{}
	whole, delta := lp.NewSolver(), lp.NewSolver()
	var mu sync.Mutex // the fuzz corpus searches on several workers
	restore := lp.SetSnapshotHook(func(tk lp.Taken) {
		mu.Lock()
		defer mu.Unlock()
		if t.Failed() {
			return
		}
		counts[tk.Load]++
		if lp.IsDelta(tk.Snap) {
			counts["delta"]++
		}
		if err := lp.SameBasis(tk.Whole, tk.Snap); err != nil {
			t.Errorf("a %s snapshot (delta: %v): %v", tk.Load, lp.IsDelta(tk.Snap), err)
			return
		}
		if tk.Load != "warm" {
			if lp.IsDelta(tk.Snap) {
				t.Errorf("a snapshot after a %s load is a delta", tk.Load)
			}
			return
		}
		if !lp.IsDelta(tk.Snap) {
			return
		}
		whole.ForgetLoad()
		delta.ForgetLoad()
		want, err := whole.SolveFrom(tk.Problem, tk.Whole, tk.Fixes...)
		if err != nil {
			t.Error(err)
			return
		}
		got, err := delta.SolveFrom(tk.Problem, tk.Snap, tk.Fixes...)
		if err != nil {
			t.Error(err)
			return
		}
		if err := lp.SameSolverState(whole, delta); err != nil {
			t.Errorf("loaded from a delta: %v", err)
			return
		}
		if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			!slices.EqualFunc(got.X, want.X, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("loaded from a delta: %v objective %v, from the whole snapshot %v objective %v", got.Status, got.Objective, want.Status, want.Objective)
			return
		}
		if allocs := testing.AllocsPerRun(1, func() {
			if !delta.LoadSnapshot(tk.Problem, tk.Snap, tk.Fixes...) {
				t.Error("a delta does not fit its own problem")
			}
		}); allocs != 0 {
			t.Errorf("a load from a delta allocates %v times", allocs)
		}
	})
	defer restore()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return counts
}

// fuzzCorpusProgram reads a program and search options from fuzz bytes
// exactly as FuzzBIPAgainstBruteForce's readFuzzProgram does (package
// bip's fuzz_test.go), leaving out the seeded incumbent, which takes an
// exhaustive enumeration to find.
func fuzzCorpusProgram(data []byte) (*bip.Program, bip.Options) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	n := 1 + next()%12
	m := 1 + next()%5
	flags := next()
	var opt bip.Options
	if flags&2 != 0 {
		opt.Gap = float64(1+next()%20) / 100
	}
	if flags&4 != 0 {
		opt.MaxNodes = 1 + next()%8
	}
	opt.Workers = 1 + next()%3

	p := bip.New()
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		neg, pos := 0.0, 0.0
		for j := range rows[i] {
			c := float64(next()%7 - 3)
			rows[i][j] = c
			if c < 0 {
				neg += c
			} else {
				pos += c
			}
		}
		rhs := neg + math.Floor(float64(next())/255*(pos-neg))
		lo, hi := math.Inf(-1), math.Inf(1)
		switch next() % 4 {
		case 0:
			hi = rhs
		case 1:
			lo = rhs
		case 2:
			lo, hi = rhs, rhs
		default:
			lo, hi = rhs-1, rhs+1
		}
		p.AddRow(lo, hi)
	}
	for j := 0; j < n; j++ {
		var obj float64
		if flags&1 == 0 {
			obj = float64(next()%16 - 8)
		} else {
			obj = float64(next()*4+next()%4-512) / 64
		}
		var es []lp.Entry
		for i := range rows {
			if c := rows[i][j]; c != 0 {
				es = append(es, lp.Entry{Row: i, Coef: c})
			}
		}
		p.AddBinary(obj, es...)
	}
	return p, opt
}
