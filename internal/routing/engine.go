package routing

import (
	"errors"
	"fmt"

	"brokerset/internal/topology"
)

// ErrNoPath is wrapped by every search that ends without a B-dominated path
// satisfying its constraints — a clean miss, not a failure of the search.
var ErrNoPath = errors.New("routing: no dominated path")

// Path is a QoS-stitched, B-dominated route.
type Path struct {
	// Nodes is the hop sequence, endpoints inclusive.
	Nodes []int32
	// Latency is the summed link latency in milliseconds.
	Latency float64
	// Bottleneck is the minimum available capacity along the path at
	// computation time, in Gbps.
	Bottleneck float64
}

// Hops returns the hop count (edges) of the path.
func (p *Path) Hops() int { return len(p.Nodes) - 1 }

// Options constrains a path computation.
type Options struct {
	// MaxHops bounds the AS hop count (0 = unbounded). The paper's
	// Problem 4 path-length constraint.
	MaxHops int
	// MinBandwidth requires every link to have at least this much
	// available capacity, in Gbps.
	MinBandwidth float64
	// BrokersOnly restricts intermediate hops to broker nodes (no hired
	// non-broker transit).
	BrokersOnly bool
}

// Reserving returns o with its bandwidth floor raised to bw, the bandwidth of
// the session the path is searched for: a path thinner than the session could
// only have its reservation refused, so every search on a session's behalf —
// setup, repath, stitch, a transit region's segment — asks for one that is
// not. The floor is never lowered.
func (o Options) Reserving(bw float64) Options {
	o.MinBandwidth = max(o.MinBandwidth, bw)
	return o
}

// Engine computes QoS paths over the B-dominated subgraph of a topology.
type Engine struct {
	top     *topology.Topology
	metrics *Metrics
	inB     []bool
	// penalty is the arc-aligned latency multiplier column KAlternatives
	// searches under: allocated on its first call, all ones between calls.
	penalty []float64
}

// NewEngine builds an engine for the broker set over top with the given
// metrics (nil metrics gets DefaultMetrics with a fixed seed).
func NewEngine(top *topology.Topology, metrics *Metrics, brokers []int32) *Engine {
	if metrics == nil {
		metrics = DefaultMetrics(top, nil)
	}
	inB := make([]bool, top.NumNodes())
	for _, b := range brokers {
		inB[b] = true
	}
	return &Engine{top: top, metrics: metrics, inB: inB}
}

// Metrics exposes the engine's metrics store.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// SetBrokers replaces the broker set the engine routes over. Paths computed
// afterwards only use links dominated by the new set. Callers that cache
// paths must invalidate them. Not safe for concurrent use with BestPath.
func (e *Engine) SetBrokers(brokers []int32) {
	for i := range e.inB {
		e.inB[i] = false
	}
	for _, b := range brokers {
		e.inB[b] = true
	}
}

// search builds the search core over the engine's live metric state. The
// pathSearch shares the metrics' slice headers (no copying), so it inherits
// the engine's external-serialization rule; lock-free callers go through
// BestPathOver with an immutable View instead.
func (e *Engine) search() *pathSearch {
	return &pathSearch{top: e.top, arcs: e.metrics.arcState, inB: e.inB, penalty: e.penalty}
}

// BestPath returns the minimum-latency B-dominated path from src to dst
// satisfying opts, or an error when none exists. With opts.MaxHops set it
// minimizes latency over paths within the hop bound.
func (e *Engine) BestPath(src, dst int, opts Options) (*Path, error) {
	return e.search().bestPath(src, dst, opts)
}

// Describe computes latency and bottleneck for a node sequence against the
// live metrics.
func (e *Engine) Describe(nodes []int32) *Path {
	return e.search().describe(nodes)
}

// KAlternatives returns up to k latency-diverse dominated paths from src to
// dst using iterative edge penalization (a practical stand-in for Yen's
// algorithm: each found path's links are penalized so the next search
// prefers disjoint routes). Paths are returned best-first; duplicates are
// filtered.
func (e *Engine) KAlternatives(src, dst, k int, opts Options) ([]*Path, error) {
	if k < 1 {
		return nil, fmt.Errorf("routing: k must be >= 1, got %d", k)
	}
	if e.penalty == nil {
		e.penalty = make([]float64, e.top.Graph.NumArcs())
		for a := range e.penalty {
			e.penalty[a] = 1
		}
	}
	// scale multiplies the penalty on every link of a path by f; 0 resets it.
	scale := func(nodes []int32, f float64) {
		for j := 0; j+1 < len(nodes); j++ {
			a, b := e.metrics.bothArcs(nodes[j], nodes[j+1])
			p := e.penalty[a] * f
			if f == 0 {
				p = 1
			}
			e.penalty[a], e.penalty[b] = p, p
		}
	}
	var out []*Path
	// Every penalised link lies on a path in out (a duplicate re-penalises
	// the links of the path it repeats), so this clears the whole column.
	defer func() {
		for _, p := range out {
			scale(p.Nodes, 0)
		}
	}()
	seen := make(map[string]bool)
	// Penalization may need several rounds to push the search off a
	// strongly preferred route, so budget more attempts than k.
	for attempt := 0; len(out) < k && attempt < 8*k; attempt++ {
		p, err := e.BestPath(src, dst, opts)
		if err != nil {
			break // no more routes under the accumulated penalties
		}
		sig := pathSignature(p.Nodes)
		if !seen[sig] {
			seen[sig] = true
			// Recompute true latency without penalties.
			out = append(out, e.Describe(p.Nodes))
		}
		scale(p.Nodes, 8)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w %d -> %d", ErrNoPath, src, dst)
	}
	return out, nil
}

func pathSignature(nodes []int32) string {
	sig := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		sig = append(sig, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(sig)
}

// flatHeap is the search's boxing-free binary min-heap of (node, cost) pairs
// — (label arena index, cost) in withinHops; the zero value is an empty heap.
type flatHeap struct {
	nodes []int32
	costs []float64
}

func (h *flatHeap) len() int { return len(h.nodes) }

// reset empties the heap, keeping its backing arrays for reuse.
func (h *flatHeap) reset() {
	h.nodes = h.nodes[:0]
	h.costs = h.costs[:0]
}

func (h *flatHeap) push(node int32, cost float64) {
	h.nodes = append(h.nodes, node)
	h.costs = append(h.costs, cost)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.costs[p] <= h.costs[i] {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *flatHeap) pop() (int32, float64) {
	node, cost := h.nodes[0], h.costs[0]
	last := len(h.nodes) - 1
	h.swap(0, last)
	h.nodes = h.nodes[:last]
	h.costs = h.costs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.costs[l] < h.costs[smallest] {
			smallest = l
		}
		if r < last && h.costs[r] < h.costs[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return node, cost
}

func (h *flatHeap) swap(i, j int) {
	h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i]
	h.costs[i], h.costs[j] = h.costs[j], h.costs[i]
}
