package search_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nose/internal/baselines"
	"nose/internal/bip"
	"nose/internal/enumerator"
	"nose/internal/planner"
	"nose/internal/randwork"
	"nose/internal/rubis"
	"nose/internal/search"
	"nose/internal/service/api"
	"nose/internal/workload"
)

// phase2Input is one advise TestPhase2AnswersPinned pins.
type phase2Input struct {
	name string
	w    *workload.Workload
	opt  search.Options
	// pool, when set, is the schema evaluated (search.AdvisePinned).
	pool *enumerator.Pool
}

// phase2Inputs returns the inputs of TestPhase2AnswersPinned: the RUBiS
// workload in the browsing, bidding and write10 mixes, every statement
// weight jittered by ±5 % as bench's daemon-rubis jitters it, advised at
// the daemon's defaults; and randwork factors 1 to 3 at seeds 5 and 42,
// advised at bench's advise-randwork options. write10 is the mix whose
// phase 2 runs a real tree (about 1,300 nodes a variant), so it gets the
// most variants. Then jittered bidding and write10 again, under a 12 MB
// space budget that binds on both (their schemas take 13.6 and 12.5 MB
// without one), which brings in the storage row, the budget cuts and
// phase 2's cost coefficient placed after a presence column's storage
// entry; and the Normalized baseline of each, advised pinned, which
// brings in a pool kept whole, every family with a presence column, and
// the point evaluated with every family present. short keeps two
// variants a mix and factor 1.
func phase2Inputs(t *testing.T, short bool) []phase2Input {
	t.Helper()
	daemon := search.Options{
		Workers: 1,
		Planner: planner.Config{MaxPlansPerQuery: planner.DefaultMaxPlansPerQuery},
	}
	bench := search.Options{
		Workers:         1,
		Planner:         planner.Config{MaxPlansPerQuery: 16},
		MaxSupportPlans: 4,
		BIP:             bip.Options{MaxNodes: 60, Gap: 0.01},
	}
	base, _, err := rubis.Workload(rubis.Graph(rubis.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	var inputs []phase2Input
	for _, mix := range []struct {
		name     string
		variants int
	}{{rubis.MixBrowsing, 3}, {rubis.MixBidding, 3}, {rubis.MixWrite10, 8}} {
		variants := mix.variants
		if short {
			variants = 2
		}
		base.ActiveMix = mix.name
		rng := rand.New(rand.NewSource(1))
		for v := 0; v < variants; v++ {
			w := workload.New(base.Graph)
			for _, ws := range base.Statements {
				w.Add(ws.Statement, base.Weight(ws)*(1+0.05*(2*rng.Float64()-1)))
			}
			inputs = append(inputs, phase2Input{name: fmt.Sprintf("rubis/%s/%d", mix.name, v), w: w, opt: daemon})
		}
	}
	factors := 3
	if short {
		factors = 1
	}
	for f := 1; f <= factors; f++ {
		for _, seed := range []int64{5, 42} {
			w, err := randwork.Generate(randwork.Config{Factor: f, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, phase2Input{name: fmt.Sprintf("randwork/f%d/s%d", f, seed), w: w, opt: bench})
		}
	}
	budgeted := daemon
	budgeted.SpaceBudgetBytes = 12e6
	variants := 3
	if short {
		variants = 2
	}
	for _, mix := range []string{rubis.MixBidding, rubis.MixWrite10} {
		base.ActiveMix = mix
		rng := rand.New(rand.NewSource(2))
		for v := 0; v < variants; v++ {
			w := workload.New(base.Graph)
			for _, ws := range base.Statements {
				w.Add(ws.Statement, base.Weight(ws)*(1+0.05*(2*rng.Float64()-1)))
			}
			inputs = append(inputs, phase2Input{name: fmt.Sprintf("rubis/%s/space12MB/%d", mix, v), w: w, opt: budgeted})
			if v > 0 {
				continue
			}
			pool, err := baselines.Normalized(w)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, phase2Input{name: fmt.Sprintf("rubis/%s/normalized", mix), w: w, pool: pool})
		}
	}
	return inputs
}

// TestPhase2AnswersPinned pins, by SHA-256, the encoded answer of every
// phase2Inputs advise: the schema, every plan, the cost to the bit and
// both phases' node counts. Phase 2 is phase 1's program with the cost
// pinned by a leading row and a count objective, and the order of a
// column's entries sets the order the solver sums them in, so a change
// that rebuilds that program even slightly differently can move a tie
// among equal-count schemas on write10 with every other test green.
// Regenerate, only for a change that means to move an answer, with:
//
//	go test ./internal/search -run TestPhase2AnswersPinned -update
func TestPhase2AnswersPinned(t *testing.T) {
	golden := filepath.Join("testdata", "phase2-answers.golden.txt")
	short := testing.Short() || raceEnabled
	var got strings.Builder
	for _, in := range phase2Inputs(t, short && !*updateGolden) {
		advise := search.Advise
		if in.pool != nil {
			advise = func(w *workload.Workload, opt search.Options) (*search.Recommendation, error) {
				return search.AdvisePinned(w, in.pool, opt)
			}
		}
		rec, err := advise(in.w, in.opt)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		out, err := api.Encode(api.Advise(in.w, rec))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", in.name, sha256.Sum256(out))
	}
	checkPinned(t, golden, got.String(), short, "answer")
}

// TestProgramsPinned pins, by lp.Problem.Fingerprint, both programs
// each phase2Inputs advise formulates: phase 1's, and the phase-2 program
// derived from it at phase 1's optimum (none for a pinned pool, which is
// evaluated, not solved). The
// fingerprint covers every column's entries in stored order, which
// decides the order the solver sums them in; TestPhase2AnswersPinned
// does not catch every reordering, since most leave the answer as it
// was. Regenerate, only for a change that means to move a program, with:
//
//	go test ./internal/search -run TestProgramsPinned -update
func TestProgramsPinned(t *testing.T) {
	golden := filepath.Join("testdata", "programs.golden.txt")
	short := testing.Short() || raceEnabled
	var got strings.Builder
	for _, in := range phase2Inputs(t, short && !*updateGolden) {
		phase1, phase2, err := search.ProgramFingerprints(in.w, in.pool, in.opt)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		fmt.Fprintf(&got, "%s/phase1 %x\n", in.name, phase1)
		if phase2 != nil {
			fmt.Fprintf(&got, "%s/phase2 %x\n", in.name, *phase2)
		}
	}
	checkPinned(t, golden, got.String(), short, "program")
}

// checkPinned compares got, lines of a name and a hash, with the golden
// file, rewriting it first under -update. A short run computes only
// some of the pinned lines.
func checkPinned(t *testing.T, golden, got string, short bool, what string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, sum, _ := strings.Cut(sc.Text(), " ")
		want[name] = sum
	}
	lines := strings.Split(strings.TrimSpace(got), "\n")
	for _, line := range lines {
		name, sum, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned %s (rerun with -update)", name, what)
		} else if sum != w {
			t.Errorf("%s: %s %s, pinned %s", name, what, sum, w)
		}
	}
	if !short && len(lines) != len(want) {
		t.Errorf("%d %ss computed, %d pinned", len(lines), what, len(want))
	}
	t.Logf("%d %ss checked against %d pinned", len(lines), what, len(want))
}
