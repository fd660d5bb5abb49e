//go:build !race

package enumerator_test

const raceEnabled = false
