package broker

import (
	"fmt"
	"sync"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// RepairOptions parameterizes MaintainIncremental.
type RepairOptions struct {
	// Target is the saturated connectivity the repaired set must reach.
	// Required, in (0,1].
	Target float64
	// Avoid bars nodes from staying in or joining the set (nil = none).
	Avoid []bool
	// Epsilon is the quality floor: if the localized repair cannot reach
	// Target but lands within Epsilon of it, the degraded set is accepted;
	// any worse triggers a full reselect. Epsilon 0 means Target is strict.
	Epsilon float64
}

// repairRadius bounds the candidate pool to nodes within that many hops of
// a blast node. Churn damage severs dominated paths at the failed
// node/link; a replacement broker must dominate edges incident to the
// damaged region, so it lies within two hops of it.
const repairRadius = 2

// maxLocalPruneTrials caps the O(V+E) connectivity evaluations the
// localized prune may spend — the bound that keeps repair o(full reselect).
const maxLocalPruneTrials = 32

// repairScratch is what a repair pass needs in proportion to the graph: the
// survivor union-find and the blast pool's BFS buffers (seen is the pool as a
// node set). A churn healer repairs on every event burst, and on the Table-2
// tier these are ~1.7 MB a pass, so they are pooled across passes.
type repairScratch struct {
	inc                  coverage.Incremental
	seen                 graph.Bitset
	frontier, next, pool []int32
}

var repairScratchPool = sync.Pool{New: func() any { return new(repairScratch) }}

// MaintainIncremental repairs a broker set after a churn event whose blast
// radius (the nodes whose incident topology changed: failed/joined nodes,
// endpoints of failed/added links, crashed brokers) is known. Unlike
// Maintain, which rescans every node each growth round and re-evaluates
// global connectivity per prune trial, the incremental pass:
//
//  1. rebuilds the survivor union-find in O(Σ deg(B)) — only the cover
//     sets touching the blast radius actually change, but union-find
//     cannot delete, so survivors replay; this is still ~|B|/n of the
//     full grow scan;
//  2. restricts replacement candidates to the pool within repairRadius hops of
//     the blast (a localized swap/add instead of a global argmax);
//  3. prunes only pool-local brokers, capped at maxLocalPruneTrials
//     connectivity evaluations.
//
// If the localized repair cannot reach Target−Epsilon, quality has
// degraded beyond the floor and it falls back to a full MaintainAvoiding
// reselect (FullReselect is set on the result). The fallback preserves
// Maintain's contract, so MaintainIncremental never returns a set worse
// than Epsilon below what full maintenance would certify.
func MaintainIncremental(g *graph.Graph, old []int32, blast []int32, opts RepairOptions) (*MaintainResult, error) {
	if opts.Target <= 0 || opts.Target > 1 {
		return nil, fmt.Errorf("broker: target connectivity %f outside (0,1]", opts.Target)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("broker: empty graph")
	}
	avoided := func(u int) bool { return u < len(opts.Avoid) && opts.Avoid[u] }

	// Survivors: replay the union-find. Dropped entries (departed nodes,
	// barred brokers, duplicates) are recorded exactly as Maintain does.
	res := &MaintainResult{}
	sc := repairScratchPool.Get().(*repairScratch)
	defer repairScratchPool.Put(sc)
	inc := &sc.inc
	inc.Reset(g)
	for _, b := range old {
		if int(b) < 0 || int(b) >= n || avoided(int(b)) {
			res.Removed = append(res.Removed, b)
			continue
		}
		if !inc.InB(int(b)) {
			inc.AddBroker(int(b))
			res.Brokers = append(res.Brokers, b)
		}
	}

	// Localized growth: best positive-gain candidate from the blast pool
	// each round, ties toward the smaller node id.
	pool := sc.blastPool(g, blast, repairRadius)
	for inc.Connectivity() < opts.Target {
		best, bestGain := int32(-1), int64(0)
		for _, u := range pool {
			if inc.InB(int(u)) || avoided(int(u)) {
				continue
			}
			if gain := inc.Gain(int(u)); gain > bestGain ||
				(gain == bestGain && gain > 0 && (best < 0 || u < best)) {
				best, bestGain = u, gain
			}
		}
		if best < 0 {
			break // pool exhausted
		}
		inc.AddBroker(int(best))
		res.Brokers = append(res.Brokers, best)
		res.Added = append(res.Added, best)
	}
	conn := inc.Connectivity()

	if conn < opts.Target-opts.Epsilon {
		// Quality floor breached: the damage exceeds what a localized swap
		// can repair. Reconvene the full selection.
		full, err := MaintainAvoiding(g, old, opts.Target, opts.Avoid)
		if err != nil {
			return nil, err
		}
		full.FullReselect = true
		return full, nil
	}

	// Localized prune: a replacement near the blast can make an old
	// survivor in the same region redundant. Only pool-local brokers are
	// candidates and the trial budget is capped, so this stays o(full).
	if conn >= opts.Target {
		pruneLocal(g, inc, res, opts.Target, sc.seen, &conn)
	}
	res.Connectivity = conn
	return res, nil
}

// blastPool returns the nodes within radius hops of any blast node, in
// deterministic BFS order, and leaves them marked in sc.seen; both are sc's
// buffers, valid until its next use. Out-of-range ids (departed nodes) still
// seed the flood through their former neighbours if listed alongside them,
// but are themselves skipped.
func (sc *repairScratch) blastPool(g *graph.Graph, blast []int32, radius int) []int32 {
	n := g.NumNodes()
	if len(sc.seen) == (n+63)>>6 {
		sc.seen.Zero()
	} else {
		sc.seen = graph.NewBitset(n)
	}
	seen, frontier, next, pool := sc.seen, sc.frontier[:0], sc.next[:0], sc.pool[:0]
	for _, u := range blast {
		if u >= 0 && int(u) < n && seen.TestAndSet(u) {
			frontier = append(frontier, u)
			pool = append(pool, u)
		}
	}
	for d := 0; d < radius && len(frontier) > 0; d++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if seen.TestAndSet(v) {
					next = append(next, v)
					pool = append(pool, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next, sc.pool = frontier, next, pool
	return pool
}

// pruneLocal drops pool-local brokers (those in local) whose removal keeps
// the target, spending at most maxLocalPruneTrials trials. inc is the
// union-find of exactly res.Brokers, and is replayed in place as brokers go:
// a trial whose RemovalUpperBound is already below the target is decided
// without its O(V+E) flood, and still spends its trial so the outcome is the
// one flooding every trial would give.
func pruneLocal(g *graph.Graph, inc *coverage.Incremental, res *MaintainResult, target float64, local graph.Bitset, conn *float64) {
	justAdded := graph.NewBitset(g.NumNodes())
	justAdded.SetAll(res.Added)
	trials := 0
	for i := 0; i < len(res.Brokers) && trials < maxLocalPruneTrials; i++ {
		b := res.Brokers[i]
		if !local.Has(b) || justAdded.Has(b) {
			continue
		}
		trials++
		if inc.RemovalUpperBound(int(b)) < target {
			continue
		}
		trial := make([]int32, 0, len(res.Brokers)-1)
		trial = append(trial, res.Brokers[:i]...)
		trial = append(trial, res.Brokers[i+1:]...)
		if c := coverage.SaturatedConnectivity(g, trial); c >= target {
			res.Brokers = trial
			res.Removed = append(res.Removed, b)
			*conn = c
			i--
			// Union-find cannot delete. A stale one would still bound from
			// above (B only shrank) but looser: replay it for the new set.
			inc.Reset(g)
			for _, k := range trial {
				inc.AddBroker(int(k))
			}
		}
	}
}
