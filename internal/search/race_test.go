//go:build race

package search_test

// raceEnabled: the race detector slows an advise about tenfold, so the
// pinned-answer sweeps run their short subset under it.
const raceEnabled = true
