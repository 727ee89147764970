// Package coverage implements the paper's coverage machinery: the
// submodular coverage function f(B) = |B ∪ N(B)|, the B-dominated subgraph
// G_B (the edges with at least one endpoint in the broker set B), saturated
// and ℓ-hop E2E connectivity, and B-dominating path search.
//
// Terminology follows the paper: an AS path is B-dominated when every hop
// has at least one endpoint in B; a source-destination pair "has
// connectivity" when some B-dominated path joins it.
package coverage

import (
	"sync"

	"brokerset/internal/graph"
)

// State tracks the coverage f(B) = |B ∪ N(B)| of a growing broker set and
// supports incremental marginal-gain queries. Membership and the covered
// set are bit-packed, so the per-candidate state fits in n/4 bytes and gain
// probes read cache-dense words. The zero value is unusable; create with
// NewState.
//
// Gain and GainBatch are read-only and safe to call concurrently with each
// other (but not with Add) — this is what the parallel selection
// algorithms' worker pools rely on.
type State struct {
	g        *graph.Graph
	inB      graph.Bitset
	covered  graph.Bitset
	nCovered int
}

// NewState returns an empty coverage state (B = ∅) over g.
func NewState(g *graph.Graph) *State {
	n := g.NumNodes()
	return &State{
		g:       g,
		inB:     graph.NewBitset(n),
		covered: graph.NewBitset(n),
	}
}

// Gain returns the marginal coverage f(B ∪ {u}) − f(B) of adding node u.
func (s *State) Gain(u int) int {
	if s.inB.Has(int32(u)) {
		return 0
	}
	gain := 0
	if !s.covered.Has(int32(u)) {
		gain++
	}
	for _, v := range s.g.Neighbors(u) {
		if !s.covered.Has(v) {
			gain++
		}
	}
	return gain
}

// GainBatch computes Gain for every node in nodes, writing results into
// out (which must have len(nodes)). workers > 1 splits the batch across
// goroutines; results are identical at any worker count because each gain
// is a pure read of the shared covered set. It is the batched
// recomputation step of the parallel CELF loop.
func (s *State) GainBatch(nodes []int32, out []int, workers int) {
	if workers <= 1 || len(nodes) < 2*workers {
		for i, u := range nodes {
			out[i] = s.Gain(int(u))
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(nodes) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(nodes) {
			break
		}
		hi := lo + chunk
		if hi > len(nodes) {
			hi = len(nodes)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = s.Gain(int(nodes[i]))
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Add inserts u into B and returns the realized marginal gain. Adding a
// node twice is a no-op with gain 0.
func (s *State) Add(u int) int {
	if s.inB.Has(int32(u)) {
		return 0
	}
	s.inB.Set(int32(u))
	gain := 0
	if s.covered.TestAndSet(int32(u)) {
		gain++
	}
	for _, v := range s.g.Neighbors(u) {
		if s.covered.TestAndSet(v) {
			gain++
		}
	}
	s.nCovered += gain
	return gain
}

// Covered returns f(B) = |B ∪ N(B)|.
func (s *State) Covered() int { return s.nCovered }

// IsCovered reports whether u ∈ B ∪ N(B).
func (s *State) IsCovered(u int) bool { return s.covered.Has(int32(u)) }

// InB reports whether u ∈ B.
func (s *State) InB(u int) bool { return s.inB.Has(int32(u)) }

// F computes f(B) = |B ∪ N(B)| for an explicit broker set.
func F(g *graph.Graph, brokers []int32) int {
	s := NewState(g)
	for _, b := range brokers {
		s.Add(int(b))
	}
	return s.Covered()
}

// MaskOf converts a broker list to a membership mask over g's nodes.
func MaskOf(g *graph.Graph, brokers []int32) []bool {
	mask := make([]bool, g.NumNodes())
	for _, b := range brokers {
		mask[b] = true
	}
	return mask
}

// BitMaskOf converts a broker list to a bit-packed membership mask.
func BitMaskOf(g *graph.Graph, brokers []int32) graph.Bitset {
	mask := graph.NewBitset(g.NumNodes())
	mask.SetAll(brokers)
	return mask
}
