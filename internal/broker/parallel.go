package broker

import (
	"runtime"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
)

// The parallel selection algorithms distribute the expensive part of the
// CELF loop — recomputing stale marginal gains against the shared coverage
// bitsets — across a worker pool, while the cheap sequential part (heap
// pops, the actual selection) stays single-threaded. Gains are pure reads
// of the coverage state, so the computed values are independent of worker
// count and scheduling; the heap's strict (gain desc, node asc) total
// order then makes the selected set bitwise-identical to the serial
// algorithm for ANY worker count — a stronger contract than the "fixed
// worker count ⇒ deterministic" minimum, and the one the property tests
// pin.
//
// Why batched refresh preserves the CELF argmax: stale stored gains are
// upper bounds of exact gains (submodularity), so once the heap's top
// entry is stamped fresh it is exact, and everything below it is bounded
// by a stale value ≤ the top's exact value. Refreshing more entries per
// round than strictly necessary only replaces upper bounds with exact
// values — it can reorder the interior of the heap, never the winner.

// normalizeWorkers clamps a worker-count request: 0 or negative means
// GOMAXPROCS.
func normalizeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// refreshBatch bounds how many stale entries one batched refresh pops:
// enough to keep every worker busy through GainBatch's chunking, small
// enough that the overshoot past the serial refresh schedule stays cheap.
func refreshBatch(workers int) int {
	if workers <= 1 {
		return 1 // exact serial CELF refresh schedule
	}
	return 4 * workers
}

// celfScratch is the reusable per-run refresh scratch.
type celfScratch struct {
	batch []gainItem
	nodes []int32
	gains []int
}

func newCELFScratch(limit int) *celfScratch {
	return &celfScratch{
		batch: make([]gainItem, 0, limit),
		nodes: make([]int32, 0, limit),
		gains: make([]int, limit),
	}
}

// refreshStale pops stale heap entries in batches of up to limit,
// recomputes their gains against st with the worker pool, and pushes them
// back stamped with round. On return the heap's top (if any) is fresh for
// round.
func refreshStale(pq *gainQueue, st *coverage.State, sc *celfScratch, round, workers, limit int) {
	for pq.Len() > 0 && pq.peek().round != round {
		sc.batch = sc.batch[:0]
		sc.nodes = sc.nodes[:0]
		for pq.Len() > 0 && len(sc.batch) < limit && pq.peek().round != round {
			it := pq.pop()
			sc.batch = append(sc.batch, it)
			sc.nodes = append(sc.nodes, it.node)
		}
		st.GainBatch(sc.nodes, sc.gains[:len(sc.nodes)], workers)
		for i, it := range sc.batch {
			pq.push(it.node, sc.gains[i], round)
		}
	}
}

// GreedyMCBParallel is Algorithm 1 (greedy maximum coverage, CELF) with
// stale-gain recomputation spread over `workers` goroutines. workers <= 0
// uses GOMAXPROCS; workers == 1 is the exact serial CELF schedule. The
// returned broker set is bitwise-identical to GreedyMCB's for every worker
// count.
func GreedyMCBParallel(g *graph.Graph, k, workers int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	workers = normalizeWorkers(workers)
	st := coverage.NewState(g)
	n := g.NumNodes()
	pq := newGainQueue(n)
	for u := 0; u < n; u++ {
		// Initial gain = |N[u]| = deg(u)+1; exact, so round 0 is fresh.
		// Bulk-load + heapify is O(n) vs O(n log n) for n pushes.
		pq.bulkAppend(int32(u), g.Degree(u)+1, 0)
	}
	pq.init()
	limit := refreshBatch(workers)
	sc := newCELFScratch(limit)
	brokers := make([]int32, 0, k)
	for round := 1; len(brokers) < k && pq.Len() > 0; round++ {
		refreshStale(pq, st, sc, round, workers, limit)
		best := pq.pop()
		if best.gain == 0 {
			break // coverage complete
		}
		st.Add(int(best.node))
		brokers = append(brokers, best.node)
	}
	return brokers, nil
}

// MaxSGParallel is Algorithm 3 (MaxSubGraph-Greedy) with both the stale
// refreshes and the candidate-enqueue gain evaluations batched over
// `workers` goroutines. workers <= 0 uses GOMAXPROCS. Output is
// bitwise-identical for every worker count; MaxSG is the workers = 1 case.
func MaxSGParallel(g *graph.Graph, k, workers int) ([]int32, error) {
	if err := checkK(g, k); err != nil {
		return nil, err
	}
	workers = normalizeWorkers(workers)
	seed := g.MaxDegreeNode()
	st := coverage.NewState(g)
	st.Add(seed)
	brokers := []int32{int32(seed)}

	pq := newGainQueue(256)
	inQueue := graph.NewBitset(g.NumNodes())
	var newCands []int32
	var newGains []int
	// enqueueNeighbors pushes every not-yet-queued neighbour of u with its
	// current exact gain. Gains for a hub's thousands of neighbours are the
	// bulk of MaxSG's work on scale-free graphs, so they are computed as
	// one parallel batch; pushes keep the (sorted) neighbour order whatever
	// the worker count.
	enqueueNeighbors := func(u int, round int) {
		newCands = newCands[:0]
		for _, v := range g.Neighbors(u) {
			if !inQueue.Has(v) && !st.InB(int(v)) {
				inQueue.Set(v)
				newCands = append(newCands, v)
			}
		}
		if cap(newGains) < len(newCands) {
			newGains = make([]int, len(newCands))
		}
		st.GainBatch(newCands, newGains[:len(newCands)], workers)
		for i, v := range newCands {
			pq.push(v, newGains[i], round)
		}
	}
	enqueueNeighbors(seed, 0)

	limit := refreshBatch(workers)
	sc := newCELFScratch(limit)
	for round := 1; len(brokers) < k && pq.Len() > 0; round++ {
		refreshStale(pq, st, sc, round, workers, limit)
		if pq.Len() == 0 {
			break
		}
		best := pq.pop()
		inQueue.Clear(best.node)
		if st.InB(int(best.node)) {
			continue
		}
		if best.gain == 0 {
			// All remaining candidates have gain <= 0 by heap order: the
			// seed's component is fully covered.
			break
		}
		st.Add(int(best.node))
		brokers = append(brokers, best.node)
		enqueueNeighbors(int(best.node), round)
	}
	return brokers, nil
}
