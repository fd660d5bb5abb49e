//go:build !race

package bip_test

const raceEnabled = false
