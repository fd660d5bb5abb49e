// Package drift detects workload drift online: a windowed divergence
// detector that compares the statement mix a system actually executes
// against the mix its current schema was advised for, and decides when
// the difference is real enough to justify re-advising.
//
// The detector is deliberately conservative. Traffic is noisy — a burst
// of one transaction type, a quiet minute — and every false trigger
// costs a schema migration. Three mechanisms keep transient noise from
// firing:
//
//   - Windowing: observations accumulate into fixed-size windows of
//     WindowStatements statements; divergence is only evaluated when a
//     window closes, so single statements never decide anything.
//   - Confirmation + hysteresis: a trigger needs ConfirmWindows
//     consecutive windows at or over DefaultThreshold, and after firing
//     the detector disarms until divergence falls below half of it —
//     sustained drift fires exactly once, not once per window.
//   - Cooldown: after a trigger, CooldownWindows windows must pass
//     before the next trigger, bounding the migration rate even if the
//     caller re-arms aggressively.
//
// Divergence is total variation distance between the normalized window
// mix and the target mix: ½·Σ|p(l)−q(l)| over all statement labels,
// bounded in [0, 1], zero iff the mixes agree exactly. All decisions
// are pure functions of the observation sequence and the configuration,
// so a fixed statement schedule reproduces the same triggers bit for
// bit at any advisor worker count.
package drift

import (
	"sort"
	"sync"

	"nose/internal/obs"
)

// Config tunes the detector. The zero value takes every default.
type Config struct {
	// WindowStatements is the number of observed statements per
	// decision window; zero means DefaultWindowStatements.
	WindowStatements int
	// ConfirmWindows is the number of consecutive over-threshold
	// windows required to trigger; zero means DefaultConfirmWindows.
	ConfirmWindows int
	// CooldownWindows is the number of windows after a trigger during
	// which no new trigger may fire; zero means
	// DefaultCooldownWindows. Negative disables the cooldown.
	CooldownWindows int
}

// Default detector tuning. DefaultThreshold is the total-variation
// divergence at or above which a window counts toward a trigger; no
// configuration changes it.
const (
	DefaultWindowStatements = 40
	DefaultThreshold        = 0.25
	DefaultConfirmWindows   = 2
	DefaultCooldownWindows  = 3
)

// rearmBelow is the divergence below which a disarmed detector re-arms
// (hysteresis).
const rearmBelow = DefaultThreshold / 2

// normalized fills config defaults.
func (c Config) normalized() Config {
	if c.WindowStatements <= 0 {
		c.WindowStatements = DefaultWindowStatements
	}
	if c.ConfirmWindows <= 0 {
		c.ConfirmWindows = DefaultConfirmWindows
	}
	if c.CooldownWindows == 0 {
		c.CooldownWindows = DefaultCooldownWindows
	}
	if c.CooldownWindows < 0 {
		c.CooldownWindows = 0
	}
	return c
}

// Decision reports what one observation caused.
type Decision struct {
	// WindowClosed reports that this observation completed a window
	// and Divergence is meaningful.
	WindowClosed bool
	// Divergence is the closed window's total-variation distance from
	// the target mix.
	Divergence float64
	// Triggered reports that the closed window fired a drift trigger:
	// the caller should re-advise on Mix (and usually SetTarget with
	// the mix it re-advised for).
	Triggered bool
	// Mix is the closed window's normalized statement mix; non-nil
	// only when Triggered.
	Mix map[string]float64
}

// Detector is a windowed drift detector. It is safe for concurrent
// use; determinism of the decision sequence requires that the
// observation sequence itself is deterministic (the harness feeds it
// serially from statement execution).
type Detector struct {
	mu     sync.Mutex
	cfg    Config
	target map[string]float64

	window  map[string]int64
	windowN int

	armed    bool
	streak   int
	cooldown int

	do detectorObs
}

// detectorObs holds the detector's instruments — its only counters.
// They start as nil no-op handles; SetObs binds them to a registry.
type detectorObs struct {
	observed, windows, triggers, suppressed *obs.Counter
	lastDivergence                          *obs.Gauge
}

// New returns a detector comparing observed traffic against the given
// advised-for mix. The target is normalized; a nil or empty target
// matches nothing, so any traffic diverges fully.
func New(cfg Config, target map[string]float64) *Detector {
	return &Detector{
		cfg:    cfg.normalized(),
		target: Normalize(target),
		window: map[string]int64{},
		armed:  true,
	}
}

// SetObs routes the detector's counters into a registry:
// drift.observed counts statements, drift.windows closed windows,
// drift.triggers fired triggers and drift.suppressed the
// over-threshold windows that did not trigger (hysteresis,
// confirmation or cooldown); the drift.last_divergence gauge holds the
// latest closed window's divergence.
func (d *Detector) SetObs(r *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.do = detectorObs{
		observed:       r.Counter("drift.observed"),
		windows:        r.Counter("drift.windows"),
		triggers:       r.Counter("drift.triggers"),
		suppressed:     r.Counter("drift.suppressed"),
		lastDivergence: r.Gauge("drift.last_divergence"),
	}
}

// SetTarget replaces the advised-for mix — call it after re-advising so
// subsequent windows are compared against the schema now serving. The
// confirmation streak and the open window reset (their observations
// were measured against the old target); the cooldown keeps running so
// a mis-targeted re-advice cannot cause immediate re-triggering.
func (d *Detector) SetTarget(target map[string]float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.target = Normalize(target)
	d.window = map[string]int64{}
	d.windowN = 0
	d.streak = 0
	d.armed = true
}

// Observe records one executed statement by label and returns the
// decision it caused. Most observations return the zero Decision; the
// one that closes a window carries the divergence and, possibly, a
// trigger.
func (d *Detector) Observe(label string) Decision {
	d.mu.Lock()
	defer d.mu.Unlock()

	d.window[label]++
	d.windowN++
	d.do.observed.Inc()
	if d.windowN < d.cfg.WindowStatements {
		return Decision{}
	}
	return d.closeWindow()
}

// closeWindow evaluates the completed window; callers hold d.mu.
func (d *Detector) closeWindow() Decision {
	mix := normalizeCounts(d.window, int64(d.windowN))
	div := TotalVariation(mix, d.target)
	d.window = map[string]int64{}
	d.windowN = 0
	d.do.windows.Inc()
	d.do.lastDivergence.Set(div)

	dec := Decision{WindowClosed: true, Divergence: div}
	over := div >= DefaultThreshold

	if d.cooldown > 0 {
		d.cooldown--
		if div < rearmBelow {
			d.armed = true
			d.streak = 0
		}
		if over {
			d.do.suppressed.Inc()
		}
		return dec
	}

	switch {
	case over && d.armed:
		d.streak++
		if d.streak < d.cfg.ConfirmWindows {
			d.do.suppressed.Inc()
			return dec
		}
		d.streak = 0
		d.armed = false
		d.cooldown = d.cfg.CooldownWindows
		d.do.triggers.Inc()
		dec.Triggered = true
		dec.Mix = mix
	case over:
		// Disarmed: sustained drift past an un-acted-on (or already
		// acted-on) trigger never re-fires until divergence first
		// drops below the re-arm level.
		d.do.suppressed.Inc()
	default:
		d.streak = 0
		if div < rearmBelow {
			d.armed = true
		}
	}
	return dec
}

// TotalVariation returns the total variation distance ½·Σ|p−q| between
// two normalized distributions over string labels. Labels absent from
// a map contribute their full mass in the other. The result is in
// [0, 1] for normalized inputs. The sum runs over sorted labels so the
// float accumulation order — and therefore the exact result — does not
// depend on map iteration order; this keeps divergence values inside
// the deterministic fingerprint.
func TotalVariation(p, q map[string]float64) float64 {
	labels := make([]string, 0, len(p)+len(q))
	for l := range p {
		labels = append(labels, l)
	}
	for l := range q {
		if _, ok := p[l]; !ok {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	sum := 0.0
	for _, l := range labels {
		d := p[l] - q[l]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / 2
}

// Normalize scales a weight map to sum to one, dropping non-positive
// entries. A nil, empty, or all-non-positive input returns an empty
// map. The total is summed in label order, not map order, so the same
// weights always normalize to the same bits.
func Normalize(w map[string]float64) map[string]float64 {
	labels := make([]string, 0, len(w))
	for l, v := range w {
		if v > 0 {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	total := 0.0
	for _, l := range labels {
		total += w[l]
	}
	out := make(map[string]float64, len(labels))
	for _, l := range labels {
		out[l] = w[l] / total
	}
	return out
}

// normalizeCounts converts window counts to a normalized mix; callers
// guarantee n > 0.
func normalizeCounts(counts map[string]int64, n int64) map[string]float64 {
	mix := make(map[string]float64, len(counts))
	for l, c := range counts {
		mix[l] = float64(c) / float64(n)
	}
	return mix
}
