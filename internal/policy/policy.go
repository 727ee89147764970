// Package policy evaluates E2E connectivity when ASes obey business
// relationships — the paper's Fig. 5b/5c experiments, where the "previously
// assumed bidirectional routing policy becomes directional".
//
// The model is the standard Gao-Rexford valley-free export policy: a path
// climbs zero or more customer→provider hops, crosses at most one peering
// hop (an IXP traversal counts as one), then descends provider→customer
// hops. Edges between cooperating brokers can be converted to "free"
// (sibling-like) links usable in any phase, which models the brokerage
// coalition's mutual transit agreements.
package policy

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// Phase is the position of a partial path in the valley-free state machine.
type Phase uint8

// Valley-free phases.
const (
	// PhaseUp: still climbing customer→provider edges.
	PhaseUp Phase = iota
	// PhaseAtIXP: parked at an IXP mid-traversal (the single peering
	// allowance is being consumed).
	PhaseAtIXP
	// PhaseDown: past the peak; only provider→customer edges remain.
	PhaseDown
	numPhases
)

// Router answers valley-free reachability queries over a topology,
// optionally restricted to B-dominated edges and with a set of edges
// converted to free (phase-preserving) links.
//
// Relationship labels (the topology's own column) and free flags are
// per-arc arrays aligned with the graph's adjacency storage, so the
// product-space BFS does no lookups on its hot path.
type Router struct {
	top   *topology.Topology
	inB   []bool // nil: no domination constraint
	isIXP []bool
	// arcRel is top.ArcRels(): entry ArcOffset(u)+i is Rel(u, Neighbors(u)[i]).
	arcRel []topology.Relationship
	// arcFree marks arcs converted to free bidirectional links.
	arcFree []bool
}

// NewRouter builds a Router. brokers may be nil, meaning no domination
// constraint (pure policy routing).
func NewRouter(top *topology.Topology, brokers []int32) *Router {
	g := top.Graph
	r := &Router{
		top:     top,
		isIXP:   top.IXPMask(),
		arcRel:  top.ArcRels(),
		arcFree: make([]bool, g.NumArcs()),
	}
	if brokers != nil {
		r.inB = make([]bool, top.NumNodes())
		for _, b := range brokers {
			r.inB[b] = true
		}
	}
	return r
}

// SetFree marks the edge (u,v) as a free bidirectional link (e.g. a
// brokerage cooperation agreement), usable in any phase. Unknown edges are
// ignored.
func (r *Router) SetFree(u, v int) {
	a, b := r.top.Graph.ArcOf(u, v), r.top.Graph.ArcOf(v, u)
	if a < 0 || b < 0 {
		return
	}
	r.arcFree[a] = true
	r.arcFree[b] = true
}

// InterBrokerEdges lists the edges whose endpoints are both brokers.
// It returns nil when the router has no domination constraint.
func (r *Router) InterBrokerEdges() [][2]int32 {
	if r.inB == nil {
		return nil
	}
	var out [][2]int32
	r.top.Graph.Edges(func(u, v int) bool {
		if r.inB[u] && r.inB[v] {
			out = append(out, [2]int32{int32(u), int32(v)})
		}
		return true
	})
	return out
}

// ConvertInterBrokerEdges marks a random fraction of inter-broker edges as
// free bidirectional links — the paper's "randomly changing x% inter-broker
// connections to bidirectional". It returns the number of converted edges.
func (r *Router) ConvertInterBrokerEdges(frac float64, rng *rand.Rand) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("policy: fraction %f outside [0,1]", frac)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	edges := r.InterBrokerEdges()
	want := int(frac * float64(len(edges)))
	perm := rng.Perm(len(edges))
	for i := 0; i < want; i++ {
		e := edges[perm[i]]
		r.SetFree(int(e[0]), int(e[1]))
	}
	return want, nil
}

// transition returns the next phase for traversing arc `arc` = (u → v) in
// `state`, or ok=false when the export policy forbids it.
func (r *Router) transition(arc int, v int32, state Phase) (Phase, bool) {
	if r.arcFree[arc] {
		if state == PhaseAtIXP {
			return PhaseDown, true
		}
		return state, true
	}
	switch r.arcRel[arc] {
	case topology.RelCustomer: // u climbs to its provider v
		if state == PhaseUp {
			return PhaseUp, true
		}
	case topology.RelProvider: // u descends to its customer v
		if state == PhaseUp || state == PhaseDown {
			return PhaseDown, true
		}
	case topology.RelPeer:
		if state == PhaseUp {
			return PhaseDown, true
		}
	case topology.RelMember:
		if r.isIXP[v] { // AS enters the exchange
			if state == PhaseUp {
				return PhaseAtIXP, true
			}
		} else { // exchange hands over to the far-side AS
			if state == PhaseAtIXP || state == PhaseUp {
				return PhaseDown, true
			}
		}
	}
	return 0, false
}

// reachInto is the allocation-light BFS core: visited is a per-phase
// bitmask scratch (must be zeroed by the caller), queue an optional reused
// buffer, and reached the output mask (zeroed by the caller).
func (r *Router) reachInto(src int, visited []uint8, queue []int64, reached []bool) []int64 {
	g := r.top.Graph
	// Queue entries pack (node << 2 | phase).
	queue = append(queue[:0], int64(src)<<2|int64(PhaseUp))
	visited[src] |= 1 << PhaseUp
	for head := 0; head < len(queue); head++ {
		u := int(queue[head] >> 2)
		state := Phase(queue[head] & 3)
		off := g.ArcOffset(u)
		uInB := r.inB == nil || r.inB[u]
		for i, v := range g.Neighbors(u) {
			if !uInB && !r.inB[v] {
				continue // not dominated
			}
			next, ok := r.transition(off+i, v, state)
			if !ok || visited[v]&(1<<next) != 0 {
				continue
			}
			visited[v] |= 1 << next
			if int(v) != src {
				reached[v] = true
			}
			queue = append(queue, int64(v)<<2|int64(next))
		}
	}
	return queue
}

// Distances runs the product-space BFS from src and returns the minimum
// policy-compliant (and B-dominated, if configured) hop count to every
// node, with graph.Unreached (-1) for unreachable ones. Because every arc
// costs one hop, the first visit in any phase is the minimum — this is the
// AS-path length BGP-style shortest-path routing would achieve under the
// Gao-Rexford export policy.
func (r *Router) Distances(src int) []int32 {
	g := r.top.Graph
	n := r.top.NumNodes()
	visited := make([]uint8, n)
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[src] = 0
	type item struct {
		node  int32
		state Phase
		d     int32
	}
	queue := make([]item, 0, 64)
	visited[src] |= 1 << PhaseUp
	queue = append(queue, item{node: int32(src), state: PhaseUp})
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		u := int(it.node)
		off := g.ArcOffset(u)
		uInB := r.inB == nil || r.inB[u]
		for i, v := range g.Neighbors(u) {
			if !uInB && !r.inB[v] {
				continue
			}
			next, ok := r.transition(off+i, v, it.state)
			if !ok || visited[v]&(1<<next) != 0 {
				continue
			}
			visited[v] |= 1 << next
			if dist[v] == graph.Unreached {
				dist[v] = it.d + 1
			}
			queue = append(queue, item{node: v, state: next, d: it.d + 1})
		}
	}
	return dist
}

// Connectivity estimates the fraction of ordered node pairs (u,v) joined by
// a policy-compliant (and B-dominated, if configured) path, sampling
// `samples` BFS sources; samples >= NumNodes() is exact. A nil rng uses a
// fixed seed.
func (r *Router) Connectivity(samples int, rng *rand.Rand) float64 {
	return r.ConnectivityParallel(samples, 1, rng)
}

// ConnectivityParallel is Connectivity with the sampled sources fanned out
// over `workers` goroutines (<= 0 uses GOMAXPROCS). Per-source counts merge
// additively, so the result is identical at any worker count. The router
// must not be mutated (SetFree/ConvertInterBrokerEdges) concurrently.
func (r *Router) ConnectivityParallel(samples, workers int, rng *rand.Rand) float64 {
	n := r.top.NumNodes()
	if n < 2 {
		return 0
	}
	if samples <= 0 {
		samples = 1000
	}
	srcs := graph.SampleNodes(n, samples, rng)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(srcs) {
		workers = len(srcs)
	}
	count := func(srcs []int32) int64 {
		visited := make([]uint8, n)
		reached := make([]bool, n)
		var queue []int64
		var pairs int64
		for _, s := range srcs {
			for i := range visited {
				visited[i] = 0
				reached[i] = false
			}
			queue = r.reachInto(int(s), visited, queue, reached)
			for _, ok := range reached {
				if ok {
					pairs++
				}
			}
		}
		return pairs
	}
	var reachedPairs int64
	if workers <= 1 {
		reachedPairs = count(srcs)
	} else {
		partial := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				lo := w * len(srcs) / workers
				hi := (w + 1) * len(srcs) / workers
				partial[w] = count(srcs[lo:hi])
			}()
		}
		wg.Wait()
		for _, p := range partial {
			reachedPairs += p
		}
	}
	return float64(reachedPairs) / (float64(len(srcs)) * float64(n-1))
}
