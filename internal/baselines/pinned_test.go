package baselines_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nose/internal/baselines"
	"nose/internal/enumerator"
	"nose/internal/rubis"
	"nose/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestBaselineRecommendationsPinned pins what the normalized and expert
// baselines execute on RUBiS (300 users) in each of the four mixes: the
// schema's families in order, each query's plan signature, and each
// (write, family) maintenance plan with its support plans' signatures in
// order. A change to how a fixed schema is planned must leave every line
// byte-identical (-update rewrites the golden file).
func TestBaselineRecommendationsPinned(t *testing.T) {
	g := rubis.Graph(tinyConfig())
	w, _, err := rubis.Workload(g)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, mix := range rubis.Mixes {
		w.ActiveMix = mix
		for _, base := range []struct {
			name string
			pool func() (*enumerator.Pool, error)
		}{
			{"Normalized", func() (*enumerator.Pool, error) { return baselines.Normalized(w) }},
			{"Expert", func() (*enumerator.Pool, error) { return baselines.ExpertRUBiS(g) }},
		} {
			pool, err := base.pool()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := recommend(w, pool)
			if err != nil {
				t.Fatalf("%s %s: %v", base.name, mix, err)
			}
			fmt.Fprintf(&b, "== %s %s\nschema:", base.name, mix)
			for _, x := range rec.Schema.Indexes() {
				fmt.Fprintf(&b, " %s", x.Name)
			}
			b.WriteByte('\n')
			for _, qr := range rec.Queries {
				fmt.Fprintf(&b, "query %s cost=%.6g %s\n",
					workload.Label(qr.Statement.Statement), qr.Plan.Cost, qr.Plan.Signature())
			}
			for _, ur := range rec.Updates {
				fmt.Fprintf(&b, "%s\n", ur.Plan)
				for _, sp := range ur.SupportPlans {
					fmt.Fprintf(&b, "  support cost=%.6g %s\n", sp.Cost, sp.Signature())
				}
			}
		}
	}

	path := filepath.Join("testdata", "recommendations.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if b.String() != string(want) {
		t.Errorf("baseline recommendations differ from %s", path)
		gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("first difference at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, want %d", len(gl), len(wl))
	}
}
