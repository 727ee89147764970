//go:build race

package daemon

// raceEnabled reports whether the race detector is compiled in; it changes
// allocation counts (sync.Pool drops a share of Puts on purpose).
const raceEnabled = true
