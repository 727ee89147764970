package churn

import (
	"slices"

	"brokerset/internal/epoch"
	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// State is the live view of a churning topology. The underlying CSR graph
// stays immutable (node and link identities are the universe); churn is an
// overlay of down-marks. The effective state of a link is down iff it was
// individually failed or either endpoint has left, and the routing metrics'
// per-arc failure flags are where that effective state is stored: path
// computation sees every change immediately, and LiveGraph drops by the same
// bits.
//
// State is not internally synchronized: callers serialize mutations against
// reads the same way they already serialize control-plane writes against
// path computation (brokerd's state lock). LiveGraph and Snapshot are reads
// under that rule too.
type State struct {
	top *topology.Topology
	// metrics holds the per-arc down set: setEffective is the only writer
	// of its failure flags.
	metrics *routing.Metrics

	// nodeDown has one bit per departed node; downNodes counts them.
	nodeDown  graph.Bitset
	downNodes int
	// linkDown has one bit per link (graph.LinkOf id) for each individually
	// failed link; failedLinks counts them. Link ids ascend with (u, v),
	// u < v, so the k-th set bit is the k-th failed link in that order.
	linkDown    graph.Bitset
	failedLinks int
	brokerDown  map[int32]bool

	live *graph.Graph // cached live graph; nil when dirty
}

// NewState wraps a topology and its routing metrics in a live churn overlay
// with everything up. The metrics must have no failed link: from here on
// the state is the only writer of their failure flags.
func NewState(top *topology.Topology, metrics *routing.Metrics) *State {
	return &State{
		top:        top,
		metrics:    metrics,
		nodeDown:   graph.NewBitset(top.NumNodes()),
		linkDown:   graph.NewBitset(top.Graph.NumEdges()),
		brokerDown: make(map[int32]bool),
	}
}

// Topology returns the underlying (immutable) topology.
func (s *State) Topology() *topology.Topology { return s.top }

// NodeDown reports whether node u has left the topology.
func (s *State) NodeDown(u int32) bool { return s.nodeDown.Has(u) }

// LinkDown reports the effective state of link (u,v): individually failed
// or incident to a departed node.
func (s *State) LinkDown(u, v int32) bool {
	if s.nodeDown.Has(u) || s.nodeDown.Has(v) {
		return true
	}
	l := s.top.Graph.LinkOf(int(u), int(v))
	return l >= 0 && s.linkDown.Has(int32(l))
}

// setFailed marks link l individually failed or not.
func (s *State) setFailed(l int, failed bool) {
	switch {
	case failed && s.linkDown.TestAndSet(int32(l)):
		s.failedLinks++
	case !failed && s.linkDown.Has(int32(l)):
		s.linkDown.Clear(int32(l))
		s.failedLinks--
	}
}

// BrokerDown reports whether the broker process on node b is failed.
func (s *State) BrokerDown(b int32) bool { return s.brokerDown[b] }

// DownBrokers returns the failed broker nodes in ascending order. O(k) in
// the number of down brokers, not O(n) in topology size.
func (s *State) DownBrokers() []int32 {
	if len(s.brokerDown) == 0 {
		return nil
	}
	out := make([]int32, 0, len(s.brokerDown))
	for b := range s.brokerDown {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// avoidMaskInto writes over buf, grown if short, the node mask of
// everything the healer must not hire as a broker: departed nodes and failed
// broker processes.
func (s *State) avoidMaskInto(buf []bool) []bool {
	n := s.top.NumNodes()
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	s.nodeDown.ForEach(func(u int32) { buf[u] = true })
	for b := range s.brokerDown {
		buf[b] = true
	}
	return buf
}

// setEffective writes link (u,v)'s current effective state into the
// metrics' per-arc failure flags, the one per-arc down set. The applier
// calls it for every link whose effective state flipped, and drops the
// cached live graph.
func (s *State) setEffective(u, v int32) {
	if s.LinkDown(u, v) {
		s.metrics.FailLink(u, v)
	} else {
		s.metrics.RestoreLink(u, v)
	}
	s.live = nil
}

// Snapshot freezes the state's live graph, the given coalition membership,
// and the given routing view into an unpublished epoch snapshot. The view is
// the snapshot's down-marks (it reads 0 available on a failed link) and must
// be the state's metrics frozen under the same writer serialization; the live
// graph, immutable like the view, only serves the snapshot's connectivity.
// Subsequent churn events leave the snapshot untouched.
func (s *State) Snapshot(brokers []int32, view *routing.View) *epoch.Snapshot {
	return epoch.NewSnapshot(epoch.SnapshotData{
		Top:     s.top,
		Live:    s.LiveGraph(),
		Brokers: append([]int32(nil), brokers...),
		View:    view,
	})
}

// LiveGraph returns the graph induced by the up links (departed nodes keep
// their ids but become isolated, so node identities are stable). The result
// is cached until the next mutation. Callers hold the writer serialization:
// a cache miss rebuilds it.
//
// The rebuild patches the topology's pristine CSR rather than the previous
// live graph: the down-marks are the whole difference from it, so restores
// need no re-insertion and the cost is one copy plus the rows the marks
// touch, whatever the history.
func (s *State) LiveGraph() *graph.Graph {
	if s.live != nil {
		return s.live
	}
	// Rows that lose an arc: both ends of every failed link, every departed
	// node and its neighbours. With none — every boot, and any fully healed
	// state — WithoutArcs hands back the topology's own graph, not a copy.
	g := s.top.Graph
	dirty := make([]int32, 0, 2*s.failedLinks)
	s.linkDown.ForEach(func(l int32) {
		u, v := g.LinkEnds(int(l))
		dirty = append(dirty, int32(u), int32(v))
	})
	s.nodeDown.ForEach(func(u int32) {
		dirty = append(dirty, u)
		dirty = append(dirty, g.Neighbors(int(u))...)
	})
	s.live = g.WithoutArcs(dirty, s.metrics.FailedArcs())
	return s.live
}
