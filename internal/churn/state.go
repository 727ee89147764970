package churn

import (
	"slices"
	"sync"

	"brokerset/internal/epoch"
	"brokerset/internal/graph"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// State is the live view of a churning topology. The underlying CSR graph
// stays immutable (node and link identities are the universe); churn is an
// overlay of down-marks, mirrored into the routing metrics' per-arc failure
// flags so path computation sees every change immediately. The effective
// state of a link is down iff it was individually failed or either endpoint
// has left.
//
// State is not internally synchronized: callers serialize mutations against
// reads the same way they already serialize control-plane writes against
// path computation (brokerd's state lock).
type State struct {
	top     *topology.Topology
	metrics *routing.Metrics // nil: overlay only, no metric mirroring

	nodeDown   []bool
	downNodes  int             // count of set nodeDown flags, kept by the applier
	linkDown   map[uint64]bool // individually failed links, packed (u<v)
	brokerDown map[int32]bool

	// liveMu guards only the live-graph cache, so concurrent readers
	// (e.g. connectivity probes under a shared read lock) can rebuild it
	// safely; all other fields follow the external-serialization rule.
	liveMu sync.Mutex
	live   *graph.Graph // cached live graph; nil when dirty
}

// packLink keys an undirected link in the sparse failed-link set
// (order-insensitive; LiveGraph unpacks the endpoints again).
func packLink(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// NewState wraps a topology (and optionally its routing metrics) in a live
// churn overlay with everything up.
func NewState(top *topology.Topology, metrics *routing.Metrics) *State {
	return &State{
		top:        top,
		metrics:    metrics,
		nodeDown:   make([]bool, top.NumNodes()),
		linkDown:   make(map[uint64]bool),
		brokerDown: make(map[int32]bool),
	}
}

// Topology returns the underlying (immutable) topology.
func (s *State) Topology() *topology.Topology { return s.top }

// NodeDown reports whether node u has left the topology.
func (s *State) NodeDown(u int32) bool { return s.nodeDown[u] }

// LinkDown reports the effective state of link (u,v): individually failed
// or incident to a departed node.
func (s *State) LinkDown(u, v int32) bool {
	return s.linkDown[packLink(u, v)] || s.nodeDown[u] || s.nodeDown[v]
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

// AvoidMask returns a node mask of everything the healer must not hire as a
// broker: departed nodes and failed broker processes.
func (s *State) AvoidMask() []bool {
	mask := make([]bool, len(s.nodeDown))
	copy(mask, s.nodeDown)
	for b := range s.brokerDown {
		mask[b] = true
	}
	return mask
}

// invalidateLive drops the cached live graph.
func (s *State) invalidateLive() {
	s.liveMu.Lock()
	s.live = nil
	s.liveMu.Unlock()
}

// mirrorLink pushes link (u,v)'s current effective state into the metrics'
// per-arc failure flags (no-op in overlay-only mode).
func (s *State) mirrorLink(u, v int32) {
	if s.metrics == nil {
		return
	}
	if s.LinkDown(u, v) {
		s.metrics.FailLink(u, v)
	} else {
		s.metrics.RestoreLink(u, v)
	}
}

// Snapshot freezes the state's live graph, the given coalition membership,
// and the given (already frozen) routing view into an unpublished epoch
// snapshot. The live graph is immutable (link down-marks, departed nodes'
// included, are its missing arcs), so subsequent churn events leave the
// snapshot untouched. Callers hold the writer serialization (the same rule as
// any other State read during mutation).
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
// is cached until the next mutation; the rebuild is internally locked so
// concurrent readers may call it, as long as no mutation runs concurrently.
//
// The rebuild patches the topology's pristine CSR rather than the previous
// live graph: the down-marks are the whole difference from it, so restores
// need no re-insertion and the cost is one copy plus the rows the marks
// touch, whatever the history.
func (s *State) LiveGraph() *graph.Graph {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live != nil {
		return s.live
	}
	// Rows that lose an arc: both ends of every failed link, every departed
	// node and its neighbours. With none — every boot, and any fully healed
	// state — WithoutArcs hands back the topology's own graph, not a copy.
	g := s.top.Graph
	dirty := make([]int32, 0, 2*len(s.linkDown))
	for k := range s.linkDown {
		dirty = append(dirty, int32(k>>32), int32(uint32(k)))
	}
	if s.downNodes > 0 {
		for u, down := range s.nodeDown {
			if down {
				dirty = append(dirty, int32(u))
				dirty = append(dirty, g.Neighbors(u)...)
			}
		}
	}
	s.live = g.WithoutArcs(dirty, s.LinkDown)
	return s.live
}
