//go:build race

package exec

// raceEnabled reports whether the race detector is on; it allocates on
// its own, so allocation-count tests skip under it.
const raceEnabled = true
