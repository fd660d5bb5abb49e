//go:build !race

package executor_test

const raceEnabled = false
