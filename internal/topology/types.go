// Package topology models AS-level Internet topologies: autonomous systems
// (ASes) with tier and service-class labels, Internet exchange points
// (IXPs), and inter-AS business relationships.
//
// It provides a calibrated synthetic Internet generator (a stand-in for the
// paper's 2014 CAIDA/RouteViews + IXP dataset; see DESIGN.md for the
// substitution argument), the classic random-graph generators used by the
// paper's Table 3 (Erdős–Rényi, Watts–Strogatz, Barabási–Albert), and a
// plain-text serialization so real datasets can be plugged in.
package topology

import (
	"fmt"

	"brokerset/internal/graph"
)

// Class categorizes a node by the service it offers, mirroring the
// classification the paper borrows for Fig. 5a / Table 5.
type Class uint8

// Node service classes.
const (
	ClassUnknown    Class = iota
	ClassTier1            // global transit backbone (T/A in the paper's Table 5)
	ClassTransit          // regional transit / access provider
	ClassAccess           // eyeball / access network
	ClassContent          // content provider (C)
	ClassEnterprise       // enterprise or stub edge network (E)
	ClassIXP              // Internet exchange point
)

var classNames = [...]string{
	ClassUnknown:    "unknown",
	ClassTier1:      "tier1",
	ClassTransit:    "transit",
	ClassAccess:     "access",
	ClassContent:    "content",
	ClassEnterprise: "enterprise",
	ClassIXP:        "ixp",
}

// String returns the lowercase class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass converts a class name produced by Class.String back to a
// Class value.
func ParseClass(s string) (Class, error) {
	for i, name := range classNames {
		if name == s {
			return Class(i), nil
		}
	}
	return ClassUnknown, fmt.Errorf("topology: unknown class %q", s)
}

// Relationship is the business relationship of an edge, viewed from the
// first endpoint: RelCustomer means "u is a customer of v".
type Relationship uint8

// Edge business relationships.
const (
	RelNone     Relationship = iota
	RelPeer                  // settlement-free peering (p2p)
	RelCustomer              // u buys transit from v (c2p from u's perspective)
	RelProvider              // u sells transit to v (p2c from u's perspective)
	RelMember                // AS-to-IXP membership link
)

var relNames = [...]string{
	RelNone:     "none",
	RelPeer:     "p2p",
	RelCustomer: "c2p",
	RelProvider: "p2c",
	RelMember:   "member",
}

// String returns the conventional short name (p2p, c2p, p2c, member).
func (r Relationship) String() string {
	if int(r) < len(relNames) {
		return relNames[r]
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// ParseRelationship converts a short relationship name back to a value.
func ParseRelationship(s string) (Relationship, error) {
	for i, name := range relNames {
		if name == s {
			return Relationship(i), nil
		}
	}
	return RelNone, fmt.Errorf("topology: unknown relationship %q", s)
}

// invert flips the perspective of a relationship.
func (r Relationship) invert() Relationship {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// Topology is an AS-level Internet topology: an undirected graph plus
// per-node labels and per-edge business relationships.
type Topology struct {
	// Graph is the underlying undirected graph over all ASes and IXPs.
	Graph *graph.Graph
	// Class holds each node's service class; Class[u] == ClassIXP marks IXPs.
	Class []Class
	// Tier is the routing hierarchy level (1 = backbone, 2 = regional,
	// 3 = edge); 0 for IXPs.
	Tier []uint8
	// Name is a human-readable node name ("AS174", "IXP DE-CIX ...").
	Name []string

	// arcRel is the relationship column, aligned with the graph's adjacency
	// arrays: arcRel[Graph.ArcOffset(u)+i] labels the edge to Neighbors(u)[i]
	// from u's perspective. Both arcs of an edge are always written together
	// (the reverse arc inverted). nil while no edge is labelled.
	arcRel []Relationship
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return t.Graph.NumNodes() }

// IsIXP reports whether node u is an IXP.
func (t *Topology) IsIXP(u int) bool { return t.Class[u] == ClassIXP }

// NumIXPs returns the number of IXP nodes.
func (t *Topology) NumIXPs() int {
	n := 0
	for _, c := range t.Class {
		if c == ClassIXP {
			n++
		}
	}
	return n
}

// NumASes returns the number of non-IXP nodes.
func (t *Topology) NumASes() int { return t.NumNodes() - t.NumIXPs() }

// SetRel records the business relationship of edge (u,v) from u's
// perspective, writing both of its arcs. It overwrites any previous label;
// a pair that is not an edge of Graph (which must be built) is ignored.
func (t *Topology) SetRel(u, v int, r Relationship) {
	a := t.Graph.ArcOf(u, v)
	if a < 0 {
		return
	}
	if t.arcRel == nil {
		t.arcRel = make([]Relationship, t.Graph.NumArcs())
	}
	t.arcRel[a] = r
	t.arcRel[t.Graph.ArcOf(v, u)] = r.invert()
}

// addRel records edge (u,v) with relationship r, from u's perspective, in a
// builder whose graph build will write this topology's relationship column:
// the builder carries a tag per arc through its passes, so no edge is
// searched for afterwards (see graph.Builder.BuildTagged). A later call for
// the same edge overwrites an earlier one.
func addRel(b *graph.Builder, u, v int, r Relationship) {
	b.AddTagged(u, v, uint8(r), uint8(r.invert()))
}

// build finishes b into t's graph and relationship column.
func (t *Topology) build(b *graph.Builder) error {
	g, tags, err := b.BuildTagged()
	if err != nil {
		return err
	}
	t.Graph = g
	t.arcRel = make([]Relationship, len(tags))
	for a, tag := range tags {
		t.arcRel[a] = Relationship(tag)
	}
	return nil
}

// Rel returns the business relationship of edge (u,v) from u's perspective,
// or RelNone if the edge is unlabeled or not an edge.
func (t *Topology) Rel(u, v int) Relationship {
	if t.arcRel == nil {
		return RelNone
	}
	if a := t.Graph.ArcOf(u, v); a >= 0 {
		return t.arcRel[a]
	}
	return RelNone
}

// ArcRels returns the relationship column: entry Graph.ArcOffset(u)+i is
// Rel(u, Neighbors(u)[i]). Bulk readers walk it beside the adjacency arrays
// instead of calling Rel per edge. Callers must not mutate it.
func (t *Topology) ArcRels() []Relationship {
	if t.arcRel == nil {
		return make([]Relationship, t.Graph.NumArcs()) // nothing labelled: all RelNone
	}
	return t.arcRel
}

// IXPMask returns a boolean mask of IXP nodes.
func (t *Topology) IXPMask() []bool {
	mask := make([]bool, t.NumNodes())
	for u, c := range t.Class {
		mask[u] = c == ClassIXP
	}
	return mask
}

// ClassHistogram counts nodes per class, optionally restricted to the node
// set `only` (nil means all nodes).
func (t *Topology) ClassHistogram(only []int32) map[Class]int {
	h := make(map[Class]int, 8)
	if only == nil {
		for _, c := range t.Class {
			h[c]++
		}
		return h
	}
	for _, u := range only {
		h[t.Class[u]]++
	}
	return h
}

// WithoutIXPs returns the topology induced on AS nodes only (the paper's
// "ASes without IXPs" variant) plus the mapping from new ids to old ids.
func (t *Topology) WithoutIXPs() (*Topology, []int32) {
	keep := make([]bool, t.NumNodes())
	for u := range keep {
		keep[u] = !t.IsIXP(u)
	}
	sub, orig, _ := t.induced(keep)
	return sub, orig
}

// induced returns the topology induced on the nodes marked in keep, with
// node labels and relationships carried over, plus the mappings from new
// node ids and new arc indexes to old ones (graph.InducedSubgraph): the
// relationship column is the parent's, gathered through the arc map.
func (t *Topology) induced(keep []bool) (*Topology, []int32, []int32) {
	sub, orig, arcOrig := t.Graph.InducedSubgraph(keep)
	nt := &Topology{
		Graph: sub,
		Class: make([]Class, sub.NumNodes()),
		Tier:  make([]uint8, sub.NumNodes()),
		Name:  make([]string, sub.NumNodes()),
	}
	for i, o := range orig {
		nt.Class[i] = t.Class[o]
		nt.Tier[i] = t.Tier[o]
		nt.Name[i] = t.Name[o]
	}
	if t.arcRel != nil {
		nt.arcRel = make([]Relationship, len(arcOrig))
		for a, pa := range arcOrig {
			nt.arcRel[a] = t.arcRel[pa]
		}
	}
	return nt, orig, arcOrig
}

// Stats summarizes a topology in the shape of the paper's Table 2.
type Stats struct {
	IXPs           int
	ASes           int
	GiantComponent int
	ASASEdges      int
	IXPASEdges     int
	TotalEdges     int
	AvgDegree      float64
}

// ComputeStats derives a Stats summary.
func (t *Topology) ComputeStats() Stats {
	s := Stats{
		IXPs:       t.NumIXPs(),
		ASes:       t.NumASes(),
		TotalEdges: t.Graph.NumEdges(),
		AvgDegree:  t.Graph.AvgDegree(),
	}
	t.Graph.Edges(func(u, v int) bool {
		if t.IsIXP(u) || t.IsIXP(v) {
			s.IXPASEdges++
		} else {
			s.ASASEdges++
		}
		return true
	})
	_, s.GiantComponent = t.Graph.GiantComponent()
	return s
}
