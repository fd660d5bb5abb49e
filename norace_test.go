//go:build !race

package nose_test

const raceEnabled = false
