package faults

import (
	"errors"
	"fmt"
	"sync"
)

// Crash sites: the code locations where Crashes can kill the process.
// Each site maintains its own deterministic counter of Point calls, so
// "crash at journal point 7" names the same instant on every run with
// the same inputs.
const (
	// SiteJournal is the migration journal's append path: the process
	// dies before the record becomes durable, so the journal's durable
	// prefix ends one record earlier than the in-memory state machine.
	SiteJournal = "journal"
	// SiteHandoff is the replica coordinator's hinted-handoff delivery:
	// the process dies while replaying queued hints, losing every hint
	// still in coordinator memory.
	SiteHandoff = "handoff"
	// SiteReadRepair is the replica coordinator's read-repair path: the
	// process dies while bringing a stale replica up to date.
	SiteReadRepair = "read-repair"
)

// CrashError reports a simulated process crash injected at a crash
// point. Unlike *Error it is never retryable: the process is dead, and
// every subsequent operation of the same Crashes set keeps failing with
// the same crash (a dead process stays dead) until the caller builds a
// fresh incarnation and recovers.
type CrashError struct {
	// Site is the crash site (SiteJournal, SiteHandoff, SiteReadRepair).
	Site string
	// Index is the zero-based count of Point calls at this site when the
	// crash fired.
	Index int64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faults: injected crash at %s point %d", e.Site, e.Index)
}

// IsCrash reports whether err is (or wraps) an injected crash.
func IsCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// Crashes is a deterministic crash-point scheduler: Arm names the
// zero-based Point call at which a site's process dies, and Point —
// called from the instrumented code paths — returns the CrashError at
// exactly that call. Once a crash fires it is sticky: every later Point
// at any site returns the same crash, modeling that nothing runs after
// the process dies. A nil *Crashes is valid and never crashes.
type Crashes struct {
	mu     sync.Mutex
	armed  map[string]int64
	counts map[string]int64
	fired  *CrashError
}

// NewCrashes returns a crash scheduler with no points armed.
func NewCrashes() *Crashes {
	return &Crashes{armed: map[string]int64{}, counts: map[string]int64{}}
}

// Arm schedules a crash at the index-th Point call of a site
// (zero-based). Arming a site replaces its previous arming; a negative
// index disarms the site.
func (c *Crashes) Arm(site string, index int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if index < 0 {
		delete(c.armed, site)
		return
	}
	c.armed[site] = index
}

// Point marks one crashable instant. It returns nil to continue, or the
// CrashError when this call is the armed one (or a crash already
// fired). Counting is per site and independent of arming, so a clean
// run measures how many crash points a scenario has.
func (c *Crashes) Point(site string) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired != nil {
		return c.fired
	}
	n := c.counts[site]
	c.counts[site] = n + 1
	if idx, ok := c.armed[site]; ok && n == idx {
		c.fired = &CrashError{Site: site, Index: n}
		return c.fired
	}
	return nil
}

// Fired returns the crash that killed the process, or nil while alive.
// Production learns of a crash from the error Point returns; the journal
// and scheduler tests ask which point fired.
func (c *Crashes) Fired() *CrashError {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired
}

// Count returns how many Point calls a site has seen (including the one
// that fired).
func (c *Crashes) Count(site string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[site]
}
