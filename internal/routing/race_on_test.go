//go:build race

package routing

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts (sync.Pool drops a share of Puts on purpose).
const raceEnabled = true
