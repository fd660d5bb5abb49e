//go:build race

package bip_test

// raceEnabled: the race detector slows an advise about tenfold, so the
// jittered-RUBiS sweep runs a sample of its seeds.
const raceEnabled = true
