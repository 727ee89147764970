package broker

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// damaged region, so it lies within two hops of it. The repair marks the
// radius-1 ball and tests the last hop per node it asks about (inRadius2).
const repairRadius = 2

// maxLocalPruneTrials caps the O(V+E) connectivity evaluations the
// localized prune may spend — the bound that keeps repair o(full reselect).
const maxLocalPruneTrials = 32

// repairScratch is what a repair pass needs in proportion to the graph: the
// survivor union-find, the radius-1 blast ball, the candidates and their
// component-root lists. A churn healer repairs on every event burst, and on
// the Table-2 tier the union-find alone is ~0.5 MB a pass, so they are
// pooled across passes.
type repairScratch struct {
	inc coverage.Incremental
	// ball holds the blast seeds and their neighbours; mark is the
	// candidates' dedupe set while they are collected and the just-added
	// set during the prune.
	ball, mark graph.Bitset
	// cands are the nodes that can still gain; roots[ends[i-1]:ends[i]]
	// are the distinct component roots cands[i] touched when last scored.
	cands, roots, ends, outside []int32
	// scored counts this repair's candidate scorings (RepairWork.Scored).
	scored int64
}

var repairScratchPool = sync.Pool{New: func() any { return new(repairScratch) }}

// RepairWork counts what MaintainIncremental has done, summed over every
// call in the process. The Table-2 churn benchmark reports it per post, so
// a change that makes a repair score, replay or mark more reads as a count
// on any machine, not only as time on one.
type RepairWork struct {
	// Scored is candidate scorings over all growth rounds: a round-1
	// neighbourhood read plus a cached-root re-read per later round.
	Scored int64
	// Probes is the component roots those scorings found
	// (coverage.Incremental.Probes): a round-1 scoring reads 1+deg roots,
	// a later one only its cached list.
	Probes int64
	// Unions is neighbour unions replaying survivors into the union-find,
	// at the start and after each successful prune.
	Unions int64
	// Marked is the nodes marked into the radius-1 blast ball.
	Marked int64
}

var repairWork struct{ scored, probes, unions, marked atomic.Int64 }

// RepairWorkDone returns the RepairWork of every MaintainIncremental call
// so far.
func RepairWorkDone() RepairWork {
	return RepairWork{
		Scored: repairWork.scored.Load(),
		Probes: repairWork.probes.Load(),
		Unions: repairWork.unions.Load(),
		Marked: repairWork.marked.Load(),
	}
}

// MaintainIncremental repairs a broker set after a churn event whose blast
// radius (the nodes whose incident topology changed: failed/joined nodes,
// endpoints of failed/added links, crashed brokers) is known. Unlike
// MaintainAvoiding, which rescans every node each growth round and
// re-evaluates global connectivity per prune trial, the incremental pass:
//
//  1. rebuilds the survivor union-find in O(Σ deg(B)) — only the cover
//     sets touching the blast radius actually change, but union-find
//     cannot delete, so survivors replay; this is still ~|B|/n of the
//     full grow scan;
//  2. restricts replacement candidates to the nodes within repairRadius
//     hops of the blast (a localized swap/add instead of a global argmax),
//     and among those scores only the ones that can gain (collect, best);
//  3. prunes only brokers within repairRadius of the blast, capped at
//     maxLocalPruneTrials connectivity evaluations.
//
// The result is the one scoring every node within repairRadius each round
// would give, field for field. If the localized repair cannot reach
// Target−Epsilon, quality has degraded beyond the floor and it falls back
// to a full MaintainAvoiding reselect (FullReselect is set on the result).
// The fallback preserves MaintainAvoiding's contract, so MaintainIncremental
// never returns a set worse than Epsilon below what full maintenance would
// certify.
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
	// barred brokers, duplicates) are recorded exactly as MaintainAvoiding does.
	res := &MaintainResult{}
	sc := repairScratchPool.Get().(*repairScratch)
	defer repairScratchPool.Put(sc)
	inc := &sc.inc
	inc.Reset(g)
	var unions int64
	for _, b := range old {
		if int(b) < 0 || int(b) >= n || avoided(int(b)) {
			res.Removed = append(res.Removed, b)
			continue
		}
		if !inc.InB(int(b)) {
			inc.AddBroker(int(b))
			unions += int64(g.Degree(int(b)))
			res.Brokers = append(res.Brokers, b)
		}
	}
	repairWork.unions.Add(unions)
	repairWork.marked.Add(sc.markBall(g, blast))

	// Localized growth: best positive-gain candidate within repairRadius of
	// the blast each round, ties toward the smaller node id.
	if inc.Connectivity() < opts.Target {
		probes := inc.Probes()
		sc.collect(g, avoided)
		for inc.Connectivity() < opts.Target {
			best := sc.best()
			if best < 0 {
				break // nothing left can gain
			}
			inc.AddBroker(int(best))
			res.Brokers = append(res.Brokers, best)
			res.Added = append(res.Added, best)
		}
		repairWork.scored.Add(sc.scored)
		repairWork.probes.Add(inc.Probes() - probes)
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
	// survivor in the same region redundant. Only brokers within
	// repairRadius of the blast are candidates and the trial budget is
	// capped, so this stays o(full).
	if conn >= opts.Target {
		sc.pruneLocal(g, res, opts.Target, &conn)
	}
	res.Connectivity = conn
	return res, nil
}

// markBall sets sc.ball to the in-range blast seeds and their neighbours
// and returns how many nodes it marked. Out-of-range ids (departed nodes)
// are skipped; their former neighbours count only if listed alongside them.
func (sc *repairScratch) markBall(g *graph.Graph, blast []int32) int64 {
	n := g.NumNodes()
	sc.ball = clearBits(sc.ball, n)
	var marked int64
	for _, u := range blast {
		if u < 0 || int(u) >= n {
			continue
		}
		if sc.ball.TestAndSet(u) {
			marked++
		}
		for _, v := range g.Neighbors(int(u)) {
			if sc.ball.TestAndSet(v) {
				marked++
			}
		}
	}
	return marked
}

// clearBits returns b zeroed and sized for n bits, reusing its words.
func clearBits(b graph.Bitset, n int) graph.Bitset {
	if len(b) != (n+63)>>6 {
		return graph.NewBitset(n)
	}
	b.Zero()
	return b
}

// inRadius2 reports whether u is within two hops of an in-range blast seed:
// in the radius-1 ball, or next to a node in it.
func (sc *repairScratch) inRadius2(g *graph.Graph, u int32) bool {
	if sc.ball.Has(u) {
		return true
	}
	for _, v := range g.Neighbors(int(u)) {
		if sc.ball.Has(v) {
			return true
		}
	}
	return false
}

// collect gathers the first round's candidates and their component roots.
// A node gains only if its closed neighbourhood touches two components, and
// one of those is not the largest, so every node that can gain is in the
// closed neighbourhood of a node outside the largest component. Of those,
// the ones outside B, not avoided, within repairRadius of the blast and
// touching two components are kept: exactly the nodes of the radius-2 pool
// whose gain is positive.
func (sc *repairScratch) collect(g *graph.Graph, avoided func(int) bool) {
	inc := &sc.inc
	sc.scored = 0
	sc.mark = clearBits(sc.mark, g.NumNodes())
	sc.cands, sc.roots, sc.ends = sc.cands[:0], sc.roots[:0], sc.ends[:0]
	sc.outside = inc.AppendOutsideLargest(sc.outside[:0])
	// consider keeps u if it can gain, reading each node once.
	consider := func(u int32) {
		if !sc.mark.TestAndSet(u) || inc.InB(int(u)) || avoided(int(u)) || !sc.inRadius2(g, u) {
			return
		}
		sc.scored++
		start := len(sc.roots)
		if sc.roots = inc.AppendRoots(sc.roots, int(u)); len(sc.roots)-start < 2 {
			sc.roots = sc.roots[:start]
			return
		}
		sc.cands = append(sc.cands, u)
		sc.ends = append(sc.ends, int32(len(sc.roots)))
	}
	for _, x := range sc.outside {
		consider(x)
		for _, u := range g.Neighbors(int(x)) {
			consider(u)
		}
	}
}

// best scores the candidates and returns the one of largest gain, ties
// toward the smaller id, or -1 when none can gain. A round-1 candidate's
// root list, found again, names the components its neighbourhood touches
// now (components only merge); a candidate down to one component can never
// gain again in this repair and is dropped, and so is the previous round's
// pick, which is in B. Gain is not submodular here — a merge can raise it —
// so every survivor is rescored each round.
func (sc *repairScratch) best() int32 {
	inc := &sc.inc
	best, bestGain := int32(-1), int64(0)
	keep, w, start := 0, 0, 0
	for i, u := range sc.cands {
		end := int(sc.ends[i])
		rs := sc.roots[start:end]
		start = end
		if inc.InB(int(u)) {
			continue
		}
		sc.scored++
		rs, gain := inc.RootsGain(rs)
		if len(rs) < 2 {
			continue
		}
		w += copy(sc.roots[w:], rs)
		sc.cands[keep], sc.ends[keep] = u, int32(w)
		keep++
		if gain > bestGain || (gain == bestGain && u < best) {
			best, bestGain = u, gain
		}
	}
	sc.cands, sc.ends, sc.roots = sc.cands[:keep], sc.ends[:keep], sc.roots[:w]
	return best
}

// pruneLocal drops brokers within repairRadius of the blast whose removal
// keeps the target, spending at most maxLocalPruneTrials trials. sc.inc is
// the union-find of exactly res.Brokers, and is replayed in place as brokers
// go: a trial whose RemovalUpperBound is already below the target is decided
// without its O(V+E) flood, and still spends its trial so the outcome is the
// one flooding every trial would give.
func (sc *repairScratch) pruneLocal(g *graph.Graph, res *MaintainResult, target float64, conn *float64) {
	inc := &sc.inc
	sc.mark = clearBits(sc.mark, g.NumNodes())
	justAdded := sc.mark
	justAdded.SetAll(res.Added)
	trials := 0
	for i := 0; i < len(res.Brokers) && trials < maxLocalPruneTrials; i++ {
		b := res.Brokers[i]
		if justAdded.Has(b) || !sc.inRadius2(g, b) {
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
				repairWork.unions.Add(int64(g.Degree(int(k))))
			}
		}
	}
}
