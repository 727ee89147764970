package routing

// RaceEnabled tells the external tests whether the race detector is on.
const RaceEnabled = raceEnabled

// MeetWork runs one unconstrained search over view the way BestPathOver does
// and reports whether the pair has a dominated path and how much work meet did
// for it: arcs read plus nodes popped, and row cursors queued, both sides. It
// exists for the external tests, which can import internal/workload (it
// imports this package) and so draw the benchmark's own pairs.
func MeetWork(view *View, inB []bool, src, dst int) (found bool, scanned, requeued int) {
	return (&pathSearch{top: view.top, arcs: view.arcState, inB: inB}).meetWork(src, dst, Options{})
}

// meetWork is MeetWork over any search and options, on a scratch of its own.
func (s *pathSearch) meetWork(src, dst int, opts Options) (found bool, scanned, requeued int) {
	sc := new(searchScratch)
	sc.reset(s.top.NumNodes())
	found = s.meet(sc, int32(src), int32(dst), opts) >= 0
	return found, sc.fwd.scanned + sc.bwd.scanned, sc.fwd.requeued + sc.bwd.requeued
}

// UsedEntries is the length of m's reservation column.
func UsedEntries(m *Metrics) int { return m.used.n }
