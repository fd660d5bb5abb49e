//go:build !race

package rubis_test

const raceEnabled = false
