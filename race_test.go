//go:build race

package nose_test

// raceEnabled: the race detector instruments allocation, so allocation
// ceilings do not hold.
const raceEnabled = true
