package churn

import (
	"fmt"

	"brokerset/internal/topology"
)

// BlastRadius is the immediate damage footprint of one applied event: the
// nodes whose adjacency changed and the links whose effective up/down state
// flipped. It is what the healer uses to decide how much repair work an
// event implies, and what operators see in the /churn response.
type BlastRadius struct {
	// Nodes are the nodes touched by the event (endpoints of flipped
	// links, or the departing/joining node plus its neighbours).
	Nodes []int32 `json:"nodes"`
	// Links are the links whose effective state flipped, as [u, v] pairs.
	Links [][2]int32 `json:"links"`
	// BrokerPlane reports that the event hit the broker plane itself
	// (broker failure/recovery), which always warrants a heal pass.
	BrokerPlane bool `json:"broker_plane"`
}

// Size returns the number of flipped links (the usual scalar summary).
func (b BlastRadius) Size() int { return len(b.Links) }

// Applier mutates a live State event by event, keeping the routing metrics'
// failure flags in sync.
type Applier struct {
	st *State
}

// NewApplier returns an applier over st.
func NewApplier(st *State) *Applier {
	return &Applier{st: st}
}

// Apply executes one event against the live state and returns its blast
// radius. Events that name unknown nodes or non-links are rejected;
// redundant events (failing an already-down link, recovering an up one)
// apply with an empty blast radius.
func (a *Applier) Apply(ev Event) (BlastRadius, error) {
	st := a.st
	n := st.top.NumNodes()
	var blast BlastRadius

	checkNode := func(u int32) error {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("churn: %s: node %d outside [0,%d)", ev.Type, u, n)
		}
		return nil
	}

	switch ev.Type {
	case LinkFail, LinkRecover, MemberLeave, MemberJoin:
		if err := checkNode(ev.U); err != nil {
			return blast, err
		}
		if err := checkNode(ev.V); err != nil {
			return blast, err
		}
		if !st.top.Graph.HasEdge(int(ev.U), int(ev.V)) {
			return blast, fmt.Errorf("churn: %s: (%d,%d) is not a link", ev.Type, ev.U, ev.V)
		}
		if ev.Type == MemberLeave || ev.Type == MemberJoin {
			if r := st.top.Rel(int(ev.U), int(ev.V)); r != topology.RelMember {
				return blast, fmt.Errorf("churn: %s: (%d,%d) is %s, not an IXP membership link", ev.Type, ev.U, ev.V, r)
			}
		}
		down := ev.Type == LinkFail || ev.Type == MemberLeave
		wasEff := st.LinkDown(ev.U, ev.V)
		st.setFailed(st.top.Graph.LinkOf(int(ev.U), int(ev.V)), down)
		if st.LinkDown(ev.U, ev.V) != wasEff {
			st.setEffective(ev.U, ev.V)
			blast.Nodes = append(blast.Nodes, ev.U, ev.V)
			blast.Links = append(blast.Links, [2]int32{ev.U, ev.V})
		}

	case NodeLeave, NodeJoin:
		if err := checkNode(ev.Node); err != nil {
			return blast, err
		}
		leaving := ev.Type == NodeLeave
		if st.nodeDown[ev.Node] == leaving {
			break // redundant
		}
		blast.Nodes = append(blast.Nodes, ev.Node)
		// Flip the node, then re-evaluate each incident link's effective
		// state; only flipped links join the blast radius (a link also
		// individually failed, or whose other endpoint is down, stays down).
		wasEff := make([]bool, 0, st.top.Graph.Degree(int(ev.Node)))
		for _, v := range st.top.Graph.Neighbors(int(ev.Node)) {
			wasEff = append(wasEff, st.LinkDown(ev.Node, v))
		}
		st.nodeDown[ev.Node] = leaving
		if leaving {
			st.downNodes++
		} else {
			st.downNodes--
		}
		for i, v := range st.top.Graph.Neighbors(int(ev.Node)) {
			if st.LinkDown(ev.Node, v) != wasEff[i] {
				st.setEffective(ev.Node, v)
				blast.Nodes = append(blast.Nodes, v)
				blast.Links = append(blast.Links, [2]int32{ev.Node, v})
			}
		}

	case BrokerFail, BrokerRecover:
		if err := checkNode(ev.Node); err != nil {
			return blast, err
		}
		failing := ev.Type == BrokerFail
		if st.brokerDown[ev.Node] == failing {
			break // redundant
		}
		if failing {
			st.brokerDown[ev.Node] = true
		} else {
			delete(st.brokerDown, ev.Node)
		}
		blast.Nodes = append(blast.Nodes, ev.Node)
		blast.BrokerPlane = true

	default:
		return blast, fmt.Errorf("churn: unknown event type %d", ev.Type)
	}

	if len(blast.Links) > 0 {
		st.invalidateLive()
	}
	return blast, nil
}

// ApplyAll applies a batch in order, merging blast radii. It stops at the
// first invalid event.
func (a *Applier) ApplyAll(events []Event) (BlastRadius, error) {
	var merged BlastRadius
	for _, ev := range events {
		b, err := a.Apply(ev)
		if err != nil {
			return merged, err
		}
		merged.Nodes = append(merged.Nodes, b.Nodes...)
		merged.Links = append(merged.Links, b.Links...)
		merged.BrokerPlane = merged.BrokerPlane || b.BrokerPlane
	}
	merged.Nodes = dedupInt32(merged.Nodes)
	return merged, nil
}

func dedupInt32(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	seen := make(map[int32]struct{}, len(s))
	out := s[:0]
	for _, v := range s {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
