package experiments_test

import (
	"reflect"
	"strings"
	"testing"

	"nose/internal/experiments"
)

func crashChaosTestConfig(workers int) experiments.CrashChaosConfig {
	opts := fastOptions()
	opts.Workers = workers
	return experiments.CrashChaosConfig{
		Seed:    7,
		Advisor: opts,
	}
}

// TestRunCrashChaosDeterministicSweep: the crash chaos sweep — one
// migration crashed at every journal append index per (consistency
// level, fault rate) cell, plus coordinator handoff/read-repair
// crash-restarts — must recover every run to a verifier-clean state,
// reproduce bit for bit from its config and seed, and be byte-identical
// at any advisor worker count. Its Format output is the fingerprint the
// sweep goldens compare.
func TestRunCrashChaosDeterministicSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness is slow")
	}
	res, err := experiments.RunCrashChaos(crashChaosTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	levels := len(experiments.DefaultQuorumLevels)
	if want := len(experiments.DefaultCrashChaosRates) * levels; len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for i, c := range res.Cells {
		rate, level := experiments.DefaultCrashChaosRates[i/levels], experiments.DefaultQuorumLevels[i%levels]
		if c.Rate != rate || c.Level != level {
			t.Fatalf("cell %d is (%g, %s), want (%g, %s)", i, c.Rate, c.Level, rate, level)
		}
		if c.JournalRecords < 6 {
			t.Errorf("rate %g %s: only %d journal records — the sweep proves little", rate, level, c.JournalRecords)
		}
		if c.CrashRuns != c.JournalRecords {
			t.Errorf("rate %g %s: %d crash runs over %d crash points", rate, level, c.CrashRuns, c.JournalRecords)
		}
		if c.Verified != c.CrashRuns+1 {
			t.Errorf("rate %g %s: %d/%d runs verified", rate, level, c.Verified, c.CrashRuns+1)
		}
		// Both recovery regimes must appear: early crashes resume
		// from the watermark, late ones roll forward.
		if c.Resumed == 0 || c.Completed == 0 {
			t.Errorf("rate %g %s: outcome histogram missed a regime: %+v", rate, level, c)
		}
	}
	// Handoff and read repair per rate, all restarts verified.
	if want := 2 * len(experiments.DefaultCrashChaosRates); len(res.Sites) != want {
		t.Fatalf("site episodes = %d, want %d", len(res.Sites), want)
	}
	for _, sc := range res.Sites {
		if !sc.Verified || sc.HintsQueued == 0 || sc.OpsToCrash == 0 {
			t.Errorf("site %s rate %g: incomplete episode: %+v", sc.Site, sc.Rate, sc)
		}
	}

	// Identical config and seed reproduce the sweep bit for bit, and
	// the advisor worker count must not change a single byte.
	again, err := experiments.RunCrashChaos(crashChaosTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("same seed produced a different sweep")
	}
	wide, err := experiments.RunCrashChaos(crashChaosTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, wide) {
		t.Errorf("worker count changed the sweep:\n%s\nvs\n%s", res.Format(), wide.Format())
	}

	out := res.Format()
	if !strings.Contains(out, "read-repair") && !strings.Contains(out, "readrepair") && !strings.Contains(out, "read_repair") {
		t.Errorf("format output missing the site section:\n%s", out)
	}
}
