//go:build race

package enumerator_test

// raceEnabled: the race detector instruments allocation, so allocation
// budgets do not hold.
const raceEnabled = true
