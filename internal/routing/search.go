package routing

import (
	"fmt"
	"math"
	"sync"

	"brokerset/internal/topology"
)

// pathSearch is the engine's search core, factored so it can run against
// either substrate: the Engine's live (externally serialized) Metrics, or
// an immutable View pinned by an epoch snapshot. It holds only slice
// headers and masks — building one is allocation-free — and never mutates
// its inputs, so any number of searches may share one View concurrently.
type pathSearch struct {
	top  *topology.Topology
	arcs arcState
	inB  []bool
	// penalty is the k-alternatives latency multiplier per arc, both arcs of
	// a link equal (nil outside Engine use).
	penalty []float64
}

// usableArc reports whether the directed arc (u → v) with index `arc` can
// appear on a dominated path: dominated and not failed. It is the half of
// the relax-loop predicate every search pays, kept small enough to inline
// into both loops (CI greps for it); the bandwidth half (thin) sits behind
// MinBandwidth > 0 and each loop asks it last, of an arc that passed every
// cheaper test.
func (s *pathSearch) usableArc(u, v int32, arc int) bool {
	return (s.inB[u] || s.inB[v]) && !s.arcs.failed.Has(int32(arc))
}

// bwFloor is a bandwidth floor with the room classes that settle it without
// the link: an arc of class fits or more has at least gbps unreserved, and
// one of class 1 to short has less. Between the two lies the floor's own
// octave (none when gbps is a power of two), where only the residual tells.
type bwFloor struct {
	gbps        float64
	fits, short uint64
}

// newBWFloor returns the floor of gbps > 0 Gbps. Class c >= 2 has at least
// 2^(c-6) unreserved and class c <= 14 less than 2^(c-5) (roomClass), so
// fits is 6 + ceil(log2 gbps) and short 5 + floor(log2 gbps), each clamped
// to the classes that exist.
func newBWFloor(gbps float64) bwFloor {
	if gbps > roomTop {
		return bwFloor{gbps: gbps, fits: 16, short: 14}
	}
	frac, e := math.Frexp(gbps) // gbps = frac·2^e, frac in [0.5, 1)
	ceil := e
	if frac == 0.5 {
		ceil--
	}
	return bwFloor{gbps: gbps, fits: uint64(max(2, 6+ceil)), short: uint64(max(0, 4+e))}
}

// thin reports whether the link of arc (u → v) has less than f.gbps
// unreserved. The arc's room class answers unless it shares the floor's
// octave (or is 0, unknown); then the link's residual does.
func (s *pathSearch) thin(u, v int32, arc int, f *bwFloor) bool {
	switch c := s.arcs.roomOf(arc); {
	case c >= f.fits:
		return false
	case c != 0 && c <= f.short:
		return true
	}
	return s.linkResidual(u, v, arc) < f.gbps
}

// linkResidual is the residual of the link of arc (u → v). The link id is
// O(1) from a row that lists the link as an arc to a higher-id neighbour
// (LinkOfArc) and a search of the neighbour's row otherwise (LinkOf).
func (s *pathSearch) linkResidual(u, v int32, arc int) float64 {
	g := s.top.Graph
	if u < v {
		return s.arcs.residual(g.LinkOfArc(int(u), arc))
	}
	return s.arcs.residual(g.LinkOf(int(v), int(u)))
}

// bestPath returns the minimum-latency B-dominated path from src to dst
// satisfying opts, or an error when none exists.
//
// The search is a bidirectional Dijkstra (meet), which knows nothing of
// opts.MaxHops — and mostly need not. The hop-bounded feasible set is a
// subset of the unbounded one, so an unbounded optimum that fits the bound
// is the bounded optimum, and a pair with no path at all has none within
// the bound. Only when the unbounded optimum is too long does the bound
// decide anything, and that residual runs withinHops on the same scratch.
func (s *pathSearch) bestPath(src, dst int, opts Options) (*Path, error) {
	n := s.top.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("routing: endpoints (%d,%d) outside [0,%d)", src, dst, n)
	}
	if src == dst {
		return &Path{Nodes: []int32{int32(src)}}, nil
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	sc.reset(n)
	var nodes []int32
	if meet := s.meet(sc, int32(src), int32(dst), opts); meet >= 0 {
		nodes = sc.stitch(meet, int32(src), int32(dst))
		if opts.MaxHops > 0 && len(nodes)-1 > opts.MaxHops {
			sc.reset(n)
			nodes = s.withinHops(sc, int32(src), int32(dst), opts)
		}
	}
	if nodes == nil {
		return nil, fmt.Errorf("%w %d -> %d within constraints", ErrNoPath, src, dst)
	}
	return s.describe(nodes), nil
}

// hopLabel is one label of the hop-bounded search: a walk of hops arcs ending
// at node, extending the label at arena index parent (-1 for the source).
type hopLabel struct {
	node, parent, hops int32
}

// withinHops is the hop-bounded residual: a label-setting search over
// (cost, hops) from src, returning the cheapest src..dst node sequence of at
// most opts.MaxHops arcs, or nil. Labels live in sc's append-only arena and
// the forward heap orders their arena indexes by cost, so they pop in
// non-decreasing cost. The forward label array holds, for each node popped
// in this generation, the fewest hops any label popped there used (in its
// parent field — a node's state here is a hop count, not a tree edge): a
// later pop at that node with no fewer hops costs no less and can go nowhere
// the earlier one cannot, so it is dominated and skipped, and an arc into
// such a node is not worth a label. What survives at a node is its Pareto
// front of (cost, hops), strictly improving in hops. Every label is within
// the bound, so the first pop at dst is the answer; latencies are positive,
// so a walk that revisits a node is dominated and the answer is simple.
func (s *pathSearch) withinHops(sc *searchScratch, src, dst int32, opts Options) []int32 {
	gen, fewest, heap := sc.gen, sc.fwd.state, &sc.fwd.heap
	floor := newBWFloor(opts.MinBandwidth)
	arena := append(sc.arena[:0], hopLabel{node: src, parent: -1})
	var nodes []int32
	heap.push(0, 0)
	for heap.len() > 0 {
		at, cost := heap.pop()
		l := arena[at]
		u := l.node
		if f := &fewest[u]; f.stamp == gen && f.parent <= l.hops {
			continue
		}
		fewest[u] = nodeLabel{parent: l.hops, stamp: gen}
		if u == dst {
			nodes = make([]int32, l.hops+1)
			for i := at; i >= 0; i = arena[i].parent {
				nodes[arena[i].hops] = arena[i].node
			}
			break
		}
		// A label on the last layer is worth making only at dst.
		last := int(l.hops)+1 == opts.MaxHops
		off := s.top.Graph.ArcOffset(int(u))
		for i, v := range s.top.Graph.Neighbors(int(u)) {
			arc := off + i
			if !s.usableArc(u, v, arc) {
				continue
			}
			if v != dst && (last || (opts.BrokersOnly && !s.inB[v])) {
				continue
			}
			if f := &fewest[v]; f.stamp == gen && f.parent <= l.hops+1 {
				continue
			}
			if opts.MinBandwidth > 0 && s.thin(u, v, arc, &floor) {
				continue
			}
			arena = append(arena, hopLabel{node: v, parent: at, hops: l.hops + 1})
			heap.push(int32(len(arena)-1), cost+s.arcs.latency[arc]*s.penaltyFactor(arc))
		}
	}
	sc.arena = arena // the grown backing array stays pooled
	return nodes
}

// meet runs the two-sided search over sc and returns the node where the
// best src→dst path's halves join, or -1 when dst is unreachable. It is the
// hot path for serving and simulation workloads: a forward search from src
// and a backward search from dst over the same adjacency, expanding the side
// that has scanned fewer arcs, with mu the cost of the best src→dst walk seen
// through a node both sides have reached. It stops when topF+topB >= mu (no
// unexpanded pair of labels can beat mu) or when either heap empties (that
// side has settled everything it can reach, so mu is final, or there is no
// path). Both tests hold whichever side is expanded, which is what lets meet
// pick the side by work done, not by cost.
//
// A popped node's row is read in ascending latency (arcState.order), at most
// rowChunk arcs a pop. The search runs, in effect, on the graph with every
// arc split at a virtual midpoint into two half-arcs: a row not finished by
// its chunk goes back on the same side's heap as a cursor (the node as ^u,
// its position in the side's pos column) keyed cost + latency/2 of its next
// arc — that midpoint's label, and no unread arc of the row has a smaller one
// — so a hub is read only as far as the search gets before it meets. The row
// is cut at the first arc with cost + latency/2 + topOther >= mu: the walk over
// that arc costs at least mu unless the far side's top is past the arc's
// midpoint from the other end, and then the far side has already read or cut
// the arc from there, so a cut on both ends is impossible (DESIGN.md,
// "Latency-ordered rows", has the argument in full; a full-latency cut lets
// both ends cut and loses the optimum, TestChunkedRowsKeepTheCrossingArc).
// Every later arc of the row is at least as long — the sum is monotone in the
// latency even in floating point — so the cut is the per-arc test applied to
// each of them, and while mu is +Inf it never fires. A penalty only lengthens
// an arc (factors are >= 1), so the raw latency is a valid bound under
// KAlternatives too. On a hub, whose row is most of what a search could read,
// a search reads a small share of the row whether mu is known yet or not.
//
// The backward side relaxes the step v→u by reading arc u→v. That is exact
// only because every per-arc input is symmetric (see arcState), domination
// is undirected, and BrokersOnly exempts exactly the far endpoint of each
// side: dst for the forward search, src for the backward one. Latencies are
// positive (DefaultMetrics and every test's calibrated metrics guarantee it),
// so the two half-paths meet in one node and the stitched sequence is simple.
func (s *pathSearch) meet(sc *searchScratch, src, dst int32, opts Options) int32 {
	gen := sc.gen
	floor := newBWFloor(opts.MinBandwidth)
	fwd, bwd := &sc.fwd, &sc.bwd
	fwd.label(src, src, 0, gen)
	bwd.label(dst, dst, 0, gen)
	mu, meet := math.Inf(1), int32(-1)
	for fwd.heap.len() > 0 && bwd.heap.len() > 0 {
		topF, topB := fwd.heap.costs[0], bwd.heap.costs[0]
		if topF+topB >= mu {
			break
		}
		// The side that has read fewer arcs expands: the two frontiers grow
		// arc for arc, the smaller heap top only breaking ties. The
		// smaller-top rule alone degenerates when one endpoint sits behind a
		// long first link and the other is a hub of short ones (a stub AS and
		// an IXP): the stub's heap top jumps to that link's latency and the
		// hub side floods everything nearer than that, thousands of nodes
		// against one.
		side, other, far, topOther := fwd, bwd, dst, topB
		if bwd.scanned < fwd.scanned || (bwd.scanned == fwd.scanned && topB < topF) {
			side, other, far, topOther = bwd, fwd, src, topF
		}
		u, cost := side.heap.pop()
		start := 0
		if u < 0 { // a row cursor: u is settled, its row resumes at pos
			u = ^u
			cost, start = side.state[u].dist, int(side.pos[u])
		} else if cost > side.state[u].dist {
			continue // superseded heap entry
		}
		off := s.top.Graph.ArcOffset(int(u))
		nbrs := s.top.Graph.Neighbors(int(u))
		row := s.arcs.order[off : off+len(nbrs)]
		i, stop := start, min(len(row), start+rowChunk)
		for ; i < stop; i++ {
			arc := int(row[i])
			lat := s.arcs.latency[arc]
			if cost+lat/2+topOther >= mu {
				break
			}
			v := nbrs[arc-off]
			if !s.usableArc(u, v, arc) {
				continue
			}
			if opts.BrokersOnly && v != far && !s.inB[v] {
				continue
			}
			nd := cost + lat*s.penaltyFactor(arc)
			if sv := &side.state[v]; sv.stamp == gen && sv.dist <= nd {
				continue
			}
			if opts.MinBandwidth > 0 && s.thin(u, v, arc, &floor) {
				continue
			}
			if ov := &other.state[v]; ov.stamp == gen && nd+ov.dist < mu {
				mu, meet = nd+ov.dist, v
			}
			side.label(v, u, nd, gen)
		}
		side.scanned += i - start + 1
		if i == stop && i < len(row) { // neither finished nor cut
			side.pos[u] = int32(i)
			side.heap.push(^u, cost+s.arcs.latency[row[i]]/2)
			side.requeued++
		}
	}
	return meet
}

// rowChunk is the most arcs one pop reads of a row. Smaller chunks stop
// nearer the meeting point but pay a heap push and pop per chunk; per found
// search on the Table-2 tier's benchmark pairs (BenchmarkTable2BestPath/found,
// three interleaved rounds at -cpu 1 on a 2-vCPU linux/amd64 VM): 16 arcs
// 37–61 µs, 32 arcs 28–37, 64 arcs 27–31, 128 arcs 31–36, 256 arcs 35–41. A
// no-path search, 1 % of the pairs, favours small chunks (0.5 µs at 16, 0.7
// at 64, 1.2–2.0 at 256).
const rowChunk = 64

// searchScratch is the per-search working state, pooled so a search does no
// O(n) allocation or initialisation. A node's label on either side is live
// only while its stamp equals gen; reset "clears" both sides by bumping
// gen and wipes the arrays only when the uint32 wraps. A row position needs
// no stamp: meet writes it when it queues the cursor that reads it. The
// arrays are sized to the largest graph seen and reused as-is for smaller
// ones (federation regions differ in size), so a pool entry settles at two
// 16-byte labels and two 4-byte row positions per node of the largest
// topology in the process. A search returns its scratch to the pool on every
// path, and nothing it returns may alias it.
type searchScratch struct {
	fwd, bwd searchSide
	gen      uint32
	// arena is withinHops' label store, kept for its backing array.
	arena []hopLabel
}

// searchSide is one direction's labels and frontier.
type searchSide struct {
	state []nodeLabel
	// pos is, for a node whose row cursor is queued, where its row resumes.
	pos  []int32
	heap flatHeap
	// scanned is the work meet has done on this side: arcs read plus nodes
	// popped. The side with less of it expands next.
	scanned int
	// requeued counts the row cursors meet has queued on this side.
	requeued int
}

// nodeLabel packs what a relaxation reads and writes for one node into a
// single 16-byte slot, so each touches one cache line per side.
type nodeLabel struct {
	dist   float64
	parent int32
	stamp  uint32
}

var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// reset empties both sides, growing the label arrays to n nodes first.
func (sc *searchScratch) reset(n int) {
	if len(sc.fwd.state) < n {
		sc.fwd.state = make([]nodeLabel, n)
		sc.bwd.state = make([]nodeLabel, n)
		sc.fwd.pos = make([]int32, n)
		sc.bwd.pos = make([]int32, n)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: labels from 2^32 searches ago would look live
		clear(sc.fwd.state)
		clear(sc.bwd.state)
		sc.gen = 1
	}
	sc.fwd.heap.reset()
	sc.bwd.heap.reset()
	sc.fwd.scanned, sc.bwd.scanned = 0, 0
	sc.fwd.requeued, sc.bwd.requeued = 0, 0
}

// label records a better tentative distance for v reached from parent and
// queues it.
func (d *searchSide) label(v, parent int32, dist float64, gen uint32) {
	d.state[v] = nodeLabel{dist: dist, parent: parent, stamp: gen}
	d.heap.push(v, dist)
}

// stitch builds the src..dst node sequence through meet from the two
// parent chains, in a fresh slice of exactly the path's length.
func (sc *searchScratch) stitch(meet, src, dst int32) []int32 {
	nf, nb := 0, 0
	for u := meet; u != src; u = sc.fwd.state[u].parent {
		nf++
	}
	for u := meet; u != dst; u = sc.bwd.state[u].parent {
		nb++
	}
	nodes := make([]int32, nf+nb+1)
	for i, u := nf, meet; i >= 0; i, u = i-1, sc.fwd.state[u].parent {
		nodes[i] = u
	}
	for i, u := nf, meet; u != dst; {
		u = sc.bwd.state[u].parent
		i++
		nodes[i] = u
	}
	return nodes
}

// describe computes latency and bottleneck for a node sequence.
func (s *pathSearch) describe(nodes []int32) *Path {
	p := &Path{Nodes: nodes, Bottleneck: -1}
	for i := 0; i+1 < len(nodes); i++ {
		if l, a := linkArc(s.top.Graph, nodes[i], nodes[i+1]); l >= 0 {
			p.Latency += s.arcs.latency[a]
			if avail := s.arcs.avail(a, l); p.Bottleneck < 0 || avail < p.Bottleneck {
				p.Bottleneck = avail
			}
		}
	}
	if p.Bottleneck < 0 {
		p.Bottleneck = 0
	}
	return p
}

// penaltyFactor is the multiplier KAlternatives has put on an arc's latency.
func (s *pathSearch) penaltyFactor(arc int) float64 {
	if s.penalty == nil {
		return 1 // hot path: no column outside Engine use
	}
	return s.penalty[arc]
}
