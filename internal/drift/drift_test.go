package drift_test

import (
	"fmt"
	"math"
	"testing"

	"nose/internal/drift"
	"nose/internal/obs"
)

// feed drives a deterministic synthetic schedule: each call emits one
// window's worth of statements drawn proportionally from the mix using
// largest-remainder apportionment, so the window's observed mix is as
// close to the requested mix as integer counts allow.
func feed(t *testing.T, d *drift.Detector, window int, mix map[string]float64) drift.Decision {
	t.Helper()
	labels := make([]string, 0, len(mix))
	for l := range mix {
		labels = append(labels, l)
	}
	// Deterministic order regardless of map iteration.
	for i := 1; i < len(labels); i++ {
		for j := i; j > 0 && labels[j] < labels[j-1]; j-- {
			labels[j], labels[j-1] = labels[j-1], labels[j]
		}
	}
	total := 0.0
	for _, l := range labels {
		total += mix[l]
	}
	counts := make([]int, len(labels))
	assigned := 0
	for i, l := range labels {
		counts[i] = int(math.Floor(mix[l] / total * float64(window)))
		assigned += counts[i]
	}
	for i := 0; assigned < window; i = (i + 1) % len(labels) {
		counts[i]++
		assigned++
	}
	var last drift.Decision
	closed := false
	for i, l := range labels {
		for k := 0; k < counts[i]; k++ {
			dec := d.Observe(l)
			if dec.WindowClosed {
				if closed {
					t.Fatalf("window closed twice in one feed")
				}
				closed = true
				last = dec
			}
		}
	}
	if !closed {
		t.Fatalf("feeding %d statements did not close a %d-statement window", window, window)
	}
	return last
}

var (
	mixA = map[string]float64{"q1": 0.5, "q2": 0.3, "w1": 0.2}
	mixB = map[string]float64{"q1": 0.1, "q2": 0.1, "w1": 0.8}
)

func testConfig() drift.Config {
	return drift.Config{
		WindowStatements: 40,
		Threshold:        0.25,
		RearmBelow:       0.10,
		ConfirmWindows:   2,
		CooldownWindows:  3,
	}
}

// TestStableWorkloadNeverTriggers: traffic matching the advised-for mix
// must never fire, no matter how long it runs.
func TestStableWorkloadNeverTriggers(t *testing.T) {
	d := drift.New(testConfig(), mixA)
	for i := 0; i < 200; i++ {
		dec := feed(t, d, 40, mixA)
		if dec.Triggered {
			t.Fatalf("window %d: stable workload triggered (divergence %.3f)", i, dec.Divergence)
		}
		if dec.Divergence > 0.05 {
			t.Fatalf("window %d: divergence %.3f for matching mix", i, dec.Divergence)
		}
	}
	if s := d.Stats(); s.Triggers != 0 || s.Windows != 200 {
		t.Fatalf("stats = %+v, want 200 windows and 0 triggers", s)
	}
}

// TestStepChangeTriggersExactlyOnce: a sustained step from mix A to
// mix B fires after ConfirmWindows windows — and never again while the
// drifted traffic persists, because the detector disarms until
// divergence returns below the re-arm level.
func TestStepChangeTriggersExactlyOnce(t *testing.T) {
	cfg := testConfig()
	d := drift.New(cfg, mixA)
	for i := 0; i < 5; i++ {
		if dec := feed(t, d, 40, mixA); dec.Triggered {
			t.Fatalf("pre-step window %d triggered", i)
		}
	}
	triggers := 0
	triggerWindow := -1
	for i := 0; i < 50; i++ {
		dec := feed(t, d, 40, mixB)
		if dec.Triggered {
			triggers++
			triggerWindow = i
			if len(dec.Mix) == 0 {
				t.Fatal("trigger carried no window mix")
			}
		}
	}
	if triggers != 1 {
		t.Fatalf("step change fired %d times, want exactly 1", triggers)
	}
	if triggerWindow != cfg.ConfirmWindows-1 {
		t.Errorf("trigger at drifted window %d, want %d (after %d confirming windows)",
			triggerWindow, cfg.ConfirmWindows-1, cfg.ConfirmWindows)
	}
	// Returning to the advised-for mix re-arms; a second sustained step
	// fires exactly once more.
	for i := 0; i < 5; i++ {
		feed(t, d, 40, mixA)
	}
	second := 0
	for i := 0; i < 20; i++ {
		if dec := feed(t, d, 40, mixB); dec.Triggered {
			second++
		}
	}
	if second != 1 {
		t.Fatalf("re-armed step fired %d times, want exactly 1", second)
	}
}

// TestHysteresisSuppressesOscillation: traffic flapping every window
// between the target and a drifted mix never sustains ConfirmWindows
// consecutive over-threshold windows, so it must not trigger — and the
// over-threshold windows are counted as suppressed.
func TestHysteresisSuppressesOscillation(t *testing.T) {
	d := drift.New(testConfig(), mixA)
	for i := 0; i < 60; i++ {
		m := mixA
		if i%2 == 1 {
			m = mixB
		}
		if dec := feed(t, d, 40, m); dec.Triggered {
			t.Fatalf("oscillating traffic triggered at window %d", i)
		}
	}
	s := d.Stats()
	if s.Triggers != 0 {
		t.Fatalf("oscillation fired %d triggers", s.Triggers)
	}
	if s.Suppressed == 0 {
		t.Fatal("no window counted as suppressed despite over-threshold flaps")
	}
}

// TestCooldownBoundsTriggerRate: re-armed after every trigger by a
// SetTarget onto the unchanged mix — what the online loop does when a
// migration aborts — the cooldown still spaces triggers at least
// CooldownWindows+ConfirmWindows windows apart.
func TestCooldownBoundsTriggerRate(t *testing.T) {
	cfg := testConfig()
	d := drift.New(cfg, mixA)
	var triggerAt []int
	for i := 0; i < 40; i++ {
		dec := feed(t, d, 40, mixB)
		if dec.Triggered {
			triggerAt = append(triggerAt, i)
			d.SetTarget(mixA) // aborted-migration path: consume the trigger, try again
		}
	}
	if len(triggerAt) < 2 {
		t.Fatalf("re-armed detector fired %d times, want repeated triggers", len(triggerAt))
	}
	minGap := cfg.CooldownWindows + cfg.ConfirmWindows
	for i := 1; i < len(triggerAt); i++ {
		if gap := triggerAt[i] - triggerAt[i-1]; gap < minGap {
			t.Errorf("triggers %d windows apart, want >= %d", gap, minGap)
		}
	}
}

// TestSetTargetAdoptsNewMix: after re-advising onto the drifted mix,
// the same traffic stops diverging and the detector goes quiet.
func TestSetTargetAdoptsNewMix(t *testing.T) {
	d := drift.New(testConfig(), mixA)
	var trig drift.Decision
	for i := 0; i < 10 && !trig.Triggered; i++ {
		trig = feed(t, d, 40, mixB)
	}
	if !trig.Triggered {
		t.Fatal("sustained drift never triggered")
	}
	d.SetTarget(trig.Mix)
	for i := 0; i < 30; i++ {
		dec := feed(t, d, 40, mixB)
		if dec.Triggered {
			t.Fatalf("window %d: retargeted detector triggered on matching traffic", i)
		}
	}
	if s := d.Stats(); s.Triggers != 1 {
		t.Fatalf("triggers = %d, want 1", s.Triggers)
	}
}

// TestObsInstruments: the registry mirrors the detector's ledger.
func TestObsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	d := drift.New(testConfig(), mixA)
	d.SetObs(reg)
	for i := 0; i < 10; i++ {
		feed(t, d, 40, mixB)
	}
	s := d.Stats()
	if got := reg.Counter("drift.windows").Value(); got != s.Windows {
		t.Errorf("drift.windows = %d, want %d", got, s.Windows)
	}
	if got := reg.Counter("drift.triggers").Value(); got != s.Triggers || s.Triggers == 0 {
		t.Errorf("drift.triggers = %d, want %d (nonzero)", got, s.Triggers)
	}
	if got := reg.Counter("drift.observed").Value(); got != 400 {
		t.Errorf("drift.observed = %d, want 400", got)
	}
}

// TestTotalVariation pins the divergence measure's edge cases.
func TestTotalVariation(t *testing.T) {
	if d := drift.TotalVariation(drift.Normalize(mixA), drift.Normalize(mixA)); d != 0 {
		t.Errorf("TV(p,p) = %g, want 0", d)
	}
	disjointP := drift.Normalize(map[string]float64{"a": 1})
	disjointQ := drift.Normalize(map[string]float64{"b": 1})
	if d := drift.TotalVariation(disjointP, disjointQ); d != 1 {
		t.Errorf("TV(disjoint) = %g, want 1", d)
	}
	p := drift.Normalize(mixA)
	q := drift.Normalize(mixB)
	if d1, d2 := drift.TotalVariation(p, q), drift.TotalVariation(q, p); d1 != d2 {
		t.Errorf("TV not symmetric: %g vs %g", d1, d2)
	}
	// Hand-checked: ½(|0.5−0.1|+|0.3−0.1|+|0.2−0.8|) = 0.6.
	if d := drift.TotalVariation(p, q); math.Abs(d-0.6) > 1e-12 {
		t.Errorf("TV(A,B) = %g, want 0.6", d)
	}
}

// TestNormalizeIsOrderIndependent: the total is a float sum, so summing
// in map iteration order made the last bit of every normalized weight
// — and of the divergences and drift-report documents built on them —
// vary from call to call. Weights whose sum depends on order must
// normalize to the same bits every time.
func TestNormalizeIsOrderIndependent(t *testing.T) {
	w := map[string]float64{}
	for i := 0; i < 40; i++ {
		w[fmt.Sprintf("s%02d", i)] = math.Pow(10, float64(i%9-4)) / 3
	}
	want := drift.Normalize(w)
	for i := 0; i < 50; i++ {
		got := drift.Normalize(w)
		for l, v := range want {
			if got[l] != v {
				t.Fatalf("call %d: %s normalized to %v, first call gave %v", i, l, got[l], v)
			}
		}
	}
}
