package bip

// SetNoRounding switches the integer-objective bound rounding off for
// every Solve and returns the function that switches it back on: tests
// compare a search with and without it.
func SetNoRounding() (restore func()) {
	testNoRounding = true
	return func() { testNoRounding = false }
}
