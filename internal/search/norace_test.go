//go:build !race

package search_test

const raceEnabled = false
