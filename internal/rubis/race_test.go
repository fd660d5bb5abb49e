//go:build race

package rubis_test

// raceEnabled: the race detector instruments allocation, so allocation
// counts do not hold.
const raceEnabled = true
