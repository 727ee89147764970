package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"brokerset/internal/coverage"
	"brokerset/internal/graph"
	"brokerset/internal/topology"
)

// maintainIncrementalReference is MaintainIncremental with the prune it had
// before the removal bound: every trial floods. The production path must
// return this function's MaintainResult field for field — brokers, order,
// Added, Removed, Connectivity — on every input.
func maintainIncrementalReference(g *graph.Graph, old []int32, blast []int32, opts RepairOptions) (*MaintainResult, error) {
	if opts.Target <= 0 || opts.Target > 1 {
		return nil, fmt.Errorf("broker: target connectivity %f outside (0,1]", opts.Target)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("broker: empty graph")
	}
	avoided := func(u int) bool { return u < len(opts.Avoid) && opts.Avoid[u] }

	res := &MaintainResult{}
	inc := coverage.NewIncremental(g)
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
	if inc.Connectivity() < opts.Target {
		pool := blastPool(g, blast, repairRadius)
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
				break
			}
			inc.AddBroker(int(best))
			res.Brokers = append(res.Brokers, best)
			res.Added = append(res.Added, best)
		}
	}
	conn := inc.Connectivity()
	if conn < opts.Target-opts.Epsilon {
		full, err := MaintainAvoiding(g, old, opts.Target, opts.Avoid)
		if err != nil {
			return nil, err
		}
		full.FullReselect = true
		return full, nil
	}
	if conn >= opts.Target {
		pruneLocalReference(g, res, opts.Target, blast, repairRadius, &conn)
	}
	res.Connectivity = conn
	return res, nil
}

// pruneLocalReference is the flood-per-trial prune: one full
// SaturatedConnectivity per pool-local survivor, at most
// maxLocalPruneTrials of them.
func pruneLocalReference(g *graph.Graph, res *MaintainResult, target float64, blast []int32, radius int, conn *float64) {
	local := graph.NewBitset(g.NumNodes())
	local.SetAll(blastPool(g, blast, radius))
	justAdded := graph.NewBitset(g.NumNodes())
	justAdded.SetAll(res.Added)
	trials := 0
	for i := 0; i < len(res.Brokers) && trials < maxLocalPruneTrials; i++ {
		b := res.Brokers[i]
		if !local.Has(b) || justAdded.Has(b) {
			continue
		}
		trial := make([]int32, 0, len(res.Brokers)-1)
		trial = append(trial, res.Brokers[:i]...)
		trial = append(trial, res.Brokers[i+1:]...)
		trials++
		if c := coverage.SaturatedConnectivity(g, trial); c >= target {
			res.Brokers = trial
			res.Removed = append(res.Removed, b)
			*conn = c
			i--
		}
	}
}

// requireSameRepair runs the production repair and the reference on one
// input and fails unless results and errors are identical.
func requireSameRepair(t *testing.T, g *graph.Graph, old, blast []int32, opts RepairOptions) *MaintainResult {
	t.Helper()
	want, wantErr := maintainIncrementalReference(g, old, blast, opts)
	got, gotErr := MaintainIncremental(g, old, blast, opts)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error differs: got %v, reference %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MaintainResult differs from the flood-per-trial reference\n got %+v\nwant %+v", got, want)
	}
	return got
}

// churnSim is a churn overlay over a pristine graph, driven the way the
// healer drives MaintainIncremental: down-marks, the live graph they imply,
// the avoid mask, and the blast seeds of each event.
type churnSim struct {
	g          *graph.Graph
	rng        *rand.Rand
	nodeDown   []bool
	brokerDown []bool
	linkDown   [][2]int32 // u < v, no duplicates
}

func newChurnSim(g *graph.Graph, seed int64) *churnSim {
	return &churnSim{
		g:          g,
		rng:        rand.New(rand.NewSource(seed)),
		nodeDown:   make([]bool, g.NumNodes()),
		brokerDown: make([]bool, g.NumNodes()),
	}
}

func (s *churnSim) dropped(u, v int32) bool {
	if u > v {
		u, v = v, u
	}
	return s.nodeDown[u] || s.nodeDown[v] || slices.Contains(s.linkDown, [2]int32{u, v})
}

func (s *churnSim) live() *graph.Graph {
	var dirty []int32
	for _, l := range s.linkDown {
		dirty = append(dirty, l[0], l[1])
	}
	for u, down := range s.nodeDown {
		if down {
			dirty = append(dirty, int32(u))
			dirty = append(dirty, s.g.Neighbors(u)...)
		}
	}
	return s.g.WithoutArcs(dirty, s.dropped)
}

func (s *churnSim) avoid() []bool {
	mask := make([]bool, len(s.nodeDown))
	for u := range mask {
		mask[u] = s.nodeDown[u] || s.brokerDown[u]
	}
	return mask
}

// step applies one random event — broker fail, node leave, link fail, or
// the restore of one of each — and returns its name and blast seeds (the
// healer appends every down broker to them).
func (s *churnSim) step(cur []int32) (string, []int32) {
	var name string
	var blast []int32
	flipNode := func(u int32, down bool) {
		s.nodeDown[u] = down
		blast = append(append(blast, u), s.g.Neighbors(int(u))...)
	}
	pickMarked := func(marks []bool) int32 {
		var set []int32
		for u, m := range marks {
			if m {
				set = append(set, int32(u))
			}
		}
		if len(set) == 0 {
			return -1
		}
		return set[s.rng.Intn(len(set))]
	}
	switch s.rng.Intn(7) {
	case 0, 1:
		name = "broker-fail"
		b := cur[s.rng.Intn(len(cur))]
		s.brokerDown[b] = true
		blast = append(blast, b)
	case 2:
		name = "node-leave"
		flipNode(int32(s.rng.Intn(s.g.NumNodes())), true)
	case 3:
		name = "link-fail"
		u := s.rng.Intn(s.g.NumNodes())
		if ns := s.g.Neighbors(u); len(ns) > 0 {
			v := ns[s.rng.Intn(len(ns))]
			l := [2]int32{min(int32(u), v), max(int32(u), v)}
			if !slices.Contains(s.linkDown, l) {
				s.linkDown = append(s.linkDown, l)
			}
			blast = append(blast, l[0], l[1])
		}
	case 4:
		name = "broker-restore"
		if b := pickMarked(s.brokerDown); b >= 0 {
			s.brokerDown[b] = false
			blast = append(blast, b)
		}
	case 5:
		name = "node-restore"
		if u := pickMarked(s.nodeDown); u >= 0 {
			flipNode(u, false)
		}
	case 6:
		name = "link-restore"
		if len(s.linkDown) > 0 {
			i := s.rng.Intn(len(s.linkDown))
			blast = append(blast, s.linkDown[i][0], s.linkDown[i][1])
			s.linkDown = slices.Delete(s.linkDown, i, i+1)
		}
	}
	for b, down := range s.brokerDown {
		if down {
			blast = append(blast, int32(b))
		}
	}
	return name, blast
}

// TestPruneBoundMatchesReferenceUnderChurn carries a coalition through
// random churn on the smoke tier, the live graph patched as the healer's
// is, and requires every repair to match the flood-per-trial reference.
func TestPruneBoundMatchesReferenceUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		top, err := topology.GenerateTier("smoke", seed)
		if err != nil {
			t.Fatal(err)
		}
		g := top.Graph
		cur, err := MaxSGParallel(g, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A little headroom under what the selection reaches, so that node
		// departures leave the target reachable and prunes have room.
		target := 0.98 * coverage.SaturatedConnectivity(g, cur)
		sim := newChurnSim(g, seed)
		var pruned, grown, reselects, failed int
		for ev := 0; ev < 60; ev++ {
			name, blast := sim.step(cur)
			opts := RepairOptions{Target: target, Avoid: sim.avoid(), Epsilon: 0.01 * float64(sim.rng.Intn(3))}
			t.Run(fmt.Sprintf("seed%d/%02d-%s", seed, ev, name), func(t *testing.T) {
				res := requireSameRepair(t, sim.live(), cur, blast, opts)
				switch {
				case res == nil:
					failed++ // target unreachable on this live graph: the healer keeps the survivors
				case res.FullReselect:
					reselects++
					cur = res.Brokers
				default:
					if len(res.Added) > 0 {
						grown++
					}
					for _, r := range res.Removed {
						if !opts.Avoid[r] {
							pruned++
						}
					}
					cur = res.Brokers
				}
			})
		}
		t.Logf("seed %d: %d repairs grew, %d brokers pruned, %d full reselects, %d unreachable", seed, grown, pruned, reselects, failed)
	}
}

// differentialCase is one random-graph repair, production against
// reference: a random broker set, a random blast, and a target at or below
// what the set reaches, so the prune has room to work.
func differentialCase(t *testing.T, seed int64, n, m int, brokerFrac, targetFrac, epsilon float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randGraph(n, m, seed)
	var old []int32
	for _, u := range rng.Perm(n) {
		if rng.Float64() < brokerFrac {
			old = append(old, int32(u))
		}
	}
	var blast []int32
	for i := rng.Intn(4); i >= 0; i-- {
		blast = append(blast, int32(rng.Intn(n)))
	}
	avoid := make([]bool, n)
	if len(old) > 0 && rng.Intn(2) == 0 {
		avoid[old[rng.Intn(len(old))]] = true
	}
	target := targetFrac * coverage.SaturatedConnectivity(g, old)
	if target <= 0 {
		target = 0.01
	}
	requireSameRepair(t, g, old, blast, RepairOptions{
		Target: target, Avoid: avoid, Epsilon: epsilon,
	})
}

// TestPruneBoundMatchesReferenceRandom sweeps dense-to-sparse random
// graphs, including targets loose enough that several prunes succeed in one
// pass (the union-find replay) and sets large enough to exhaust the trial
// budget.
func TestPruneBoundMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		n := 2 + rng.Intn(150)
		differentialCase(t, seed, n, rng.Intn(4*n), rng.Float64(), 0.5+0.5*rng.Float64(), 0.02*float64(rng.Intn(2)))
	}
}

func FuzzPruneBoundVsReference(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(30), uint8(100))
	f.Add(int64(2), uint8(2), uint8(1), uint8(100), uint8(50))
	f.Add(int64(3), uint8(120), uint8(2), uint8(60), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, n, deg, brokerPct, targetPct uint8) {
		nodes := 2 + int(n%127)
		differentialCase(t, seed, nodes, nodes*int(1+deg%4),
			float64(brokerPct%101)/100, 0.5+float64(targetPct%51)/100, 0)
	})
}

// TestPruneBoundSkippedTrialsSpendBudget pins the half of bit-identity the
// target alone would not: a trial the bound decides still spends one of the
// maxLocalPruneTrials. A hub joins 40 brokers; the first 39 each own three
// private leaves (removing one strands them, and the bound sees it), the
// last owns none and is redundant. The reference burns its 32 trials on
// the doomed brokers and never reaches the redundant one — so neither may
// the bounded prune, though it floods nothing on the way.
func TestPruneBoundSkippedTrialsSpendBudget(t *testing.T) {
	const brokers, leaves = 40, 3
	n := 1 + brokers + (brokers-1)*leaves
	b := graph.NewBuilder(n)
	var old []int32
	next := 1 + brokers
	for i := 1; i <= brokers; i++ {
		b.AddEdge(0, i)
		old = append(old, int32(i))
		if i == brokers {
			b.AddEdge(i, 1) // redundant: both its links are dominated without it
			break
		}
		for l := 0; l < leaves; l++ {
			b.AddEdge(i, next)
			next++
		}
	}
	g := b.MustBuild()
	if brokers-1 < maxLocalPruneTrials {
		t.Fatalf("construction needs more than %d doomed brokers ahead of the redundant one", maxLocalPruneTrials)
	}
	res := requireSameRepair(t, g, old, []int32{0}, RepairOptions{Target: 1})
	if len(res.Removed) != 0 || len(res.Brokers) != brokers {
		t.Fatalf("budget should run out before the redundant broker: removed %v", res.Removed)
	}
	// With the redundant broker inside the budget it is pruned, so the case
	// above really was decided by the trial count.
	front := append([]int32{brokers}, old[:brokers-1]...)
	res = requireSameRepair(t, g, front, []int32{0}, RepairOptions{Target: 1})
	if len(res.Removed) != 1 || res.Removed[0] != brokers {
		t.Fatalf("redundant broker first in line: removed %v, want [%d]", res.Removed, brokers)
	}
}

// maxSGReference is a quadratic literal transcription of Algorithm 3 used
// by tests to validate the lazy implementation: every round scans all of
// N(B) for the candidate maximizing the dominated-subgraph size.
func maxSGReference(g *graph.Graph, k int) []int32 {
	if g.NumNodes() == 0 || k < 1 {
		return nil
	}
	seed := g.MaxDegreeNode()
	st := coverage.NewState(g)
	st.Add(seed)
	brokers := []int32{int32(seed)}
	for len(brokers) < k {
		best, bestGain := int32(-1), 0
		for u := 0; u < g.NumNodes(); u++ {
			if st.InB(u) || !adjacentToBroker(g, st, u) {
				continue
			}
			if gn := st.Gain(u); gn > bestGain || (gn == bestGain && bestGain > 0 && int32(u) < best) {
				best, bestGain = int32(u), gn
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		st.Add(int(best))
		brokers = append(brokers, best)
	}
	return brokers
}

func adjacentToBroker(g *graph.Graph, st *coverage.State, u int) bool {
	for _, v := range g.Neighbors(u) {
		if st.InB(int(v)) {
			return true
		}
	}
	return false
}
