//go:build race

package executor_test

// raceEnabled: the race detector makes sync.Pool drop items at random
// and instruments allocation, so allocation budgets do not hold.
const raceEnabled = true
