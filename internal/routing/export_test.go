package routing

// RaceEnabled tells the external tests whether the race detector is on.
const RaceEnabled = raceEnabled

// MeetWork runs one unconstrained search over view the way BestPathOver does
// and reports whether the pair has a dominated path and how much work meet did
// for it: arcs read plus nodes popped, both sides. It exists for the external
// tests, which can import internal/workload (it imports this package) and so
// draw the benchmark's own pairs.
func MeetWork(view *View, inB []bool, src, dst int) (found bool, scanned int) {
	s := &pathSearch{top: view.top, arcs: view.arcState, inB: inB}
	sc := new(searchScratch)
	sc.reset(view.top.NumNodes())
	found = s.meet(sc, int32(src), int32(dst), Options{}) >= 0
	return found, sc.fwd.scanned + sc.bwd.scanned
}
