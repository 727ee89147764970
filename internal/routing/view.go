package routing

import "brokerset/internal/topology"

// View is an immutable, point-in-time copy of a Metrics' per-arc state.
// It is the routing half of an epoch snapshot: captured under the writer's
// serialization with Metrics.View(), then read by any number of concurrent
// path searches (BestPathOver) without locks — nothing ever mutates a View
// after construction.
type View struct {
	top *topology.Topology
	arcState
}

// View freezes the current arc state into an immutable View. Everything is
// shared copy-on-write: latency/capacity/failed share whole arrays, used
// shares its tree, and the writer clones before its next mutation of
// anything captured here — so this is O(1): one small allocation, whatever
// the arc count (TestViewCostIndependentOfArcs). Callers hold whatever
// serialization orders Metrics mutations (the capture must not race a
// Reserve/FailLink); the returned View itself is free of that rule.
func (m *Metrics) View() *View {
	m.failedShared = true
	return &View{top: m.top, arcState: m.arcState.freeze()}
}

// Latency returns the link latency in milliseconds (0 for a non-edge).
func (v *View) Latency(a, b int32) float64 {
	if i := v.top.Graph.ArcOf(int(a), int(b)); i >= 0 {
		return v.latency[i]
	}
	return 0
}

// Available returns the unreserved capacity of a link at capture time;
// 0 when failed or not an edge.
func (v *View) Available(a, b int32) float64 {
	if i := v.top.Graph.ArcOf(int(a), int(b)); i >= 0 {
		return v.availArc(i)
	}
	return 0
}

// Failed reports whether the link was marked failed at capture time.
func (v *View) Failed(a, b int32) bool {
	i := v.top.Graph.ArcOf(int(a), int(b))
	return i >= 0 && v.failed.Has(int32(i))
}

// BestPathOver computes the minimum-latency B-dominated path from src to
// dst against an immutable metrics view, with broker membership given by
// the inB node mask. It is the lock-free entry point epoch snapshots use:
// safe for unlimited concurrent calls as long as view and inB are never
// mutated (epoch snapshots guarantee both).
func BestPathOver(view *View, inB []bool, src, dst int, opts Options) (*Path, error) {
	s := &pathSearch{top: view.top, arcs: view.arcState, inB: inB}
	return s.bestPath(src, dst, opts)
}
