package experiments

import (
	"fmt"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/pagerank"
	"brokerset/internal/stats"
	"brokerset/internal/tablefmt"
)

// Fig1 summarizes the topology's layered structure (the paper's
// visualization shows a scale-free network with IXPs at both core and
// edge): node composition per class, IXP placement by degree decile, and
// hub statistics.
func (s *Suite) Fig1() (*tablefmt.Table, error) {
	g := s.Top.Graph
	t := tablefmt.New("Fig 1. Topology structure: tiers and IXP layering",
		"segment", "nodes", "IXPs", "avg degree", "max degree")

	// Degree deciles from the core (top) to the edge.
	order := g.NodesByDegreeDesc()
	n := len(order)
	for d := 0; d < 10; d++ {
		lo, hi := d*n/10, (d+1)*n/10
		seg := order[lo:hi]
		var degSum, degMax, ixps int
		for _, u := range seg {
			deg := g.Degree(int(u))
			degSum += deg
			if deg > degMax {
				degMax = deg
			}
			if s.Top.IsIXP(int(u)) {
				ixps++
			}
		}
		avg := 0.0
		if len(seg) > 0 {
			avg = float64(degSum) / float64(len(seg))
		}
		t.AddRow(fmt.Sprintf("decile %d (%s)", d+1, coreOrEdge(d)), len(seg), ixps, avg, degMax)
	}
	hist := s.Top.ClassHistogram(nil)
	for _, c := range sortedClasses(hist) {
		t.AddNote("%d %s nodes", hist[c], c)
	}
	t.AddNote("paper: scale-free, layered; IXPs appear at both the core and the edge")
	return t, nil
}

func coreOrEdge(decile int) string {
	if decile == 0 {
		return "core"
	}
	if decile >= 7 {
		return "edge"
	}
	return "middle"
}

// Fig2a reproduces the CDF of SC-algorithm broker-set sizes over repeated
// runs: the SC dominating sets land around 3/4 of all nodes, which is why
// set selection matters.
func (s *Suite) Fig2a() (*tablefmt.Table, error) {
	n := s.Top.NumNodes()
	sizes := make([]float64, 0, s.Config.SCIterations)
	for i := 0; i < s.Config.SCIterations; i++ {
		set := broker.SetCover(s.Top.Graph, s.rng(int64(100+i)))
		sizes = append(sizes, float64(len(set)))
	}
	t := tablefmt.New(fmt.Sprintf("Fig 2a. CDF of SC broker-set size (%d runs)", len(sizes)),
		"quantile", "set size", "fraction of nodes")
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		v, err := stats.Quantile(sizes, q)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("p%.0f", q*100), int(v), tablefmt.Percent(v/float64(n)))
	}
	t.AddRow("mean", int(stats.Mean(sizes)), tablefmt.Percent(stats.Mean(sizes)/float64(n)))
	t.AddNote("paper: SC takes ~40,000 nodes, more than 76%% of all vertices")
	return t, nil
}

// Fig2b reproduces the l-hop E2E connectivity of every selection algorithm
// at the paper's ~1,000-broker budget (IXPB and Tier1Only use their natural
// sizes), plus the free-path reference.
func (s *Suite) Fig2b() (*tablefmt.Table, error) {
	const maxL = 8
	g := s.Top.Graph
	k := s.k1000

	type algo struct {
		name    string
		brokers []int32
	}
	var algos []algo

	ixpb, err := broker.IXPBased(g, s.Top.IXPMask(), 0)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("IXPB (%d)", len(ixpb)), ixpb})

	t1, err := broker.Tier1Only(g, s.Top.Tier)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("Tier1Only (%d)", len(t1)), t1})

	db, err := broker.DegreeBased(g, k)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("DB (%d)", len(db)), db})

	prb, err := broker.PageRankBased(g, k)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("PRB (%d)", len(prb)), prb})

	apx, err := broker.ApproxMCBGAdaptive(g, k, 4)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("Approx MCBG (%d)", len(apx.Brokers)), apx.Brokers})

	maxsg, err := broker.MaxSG(g, k)
	if err != nil {
		return nil, err
	}
	algos = append(algos, algo{fmt.Sprintf("MaxSG (%d)", len(maxsg)), maxsg})

	t := tablefmt.New("Fig 2b. l-hop E2E connectivity by algorithm",
		"algorithm (|B|)", "l=2", "l=4", "l=6", "l=8", "saturated")
	for i, a := range algos {
		conn := coverage.LHop(g, a.brokers, coverage.LHopOptions{
			MaxL: maxL, Samples: s.Config.Samples, Rng: s.rng(int64(30 + i)), Parallelism: -1,
		})
		sat := s.connectivity(a.brokers)
		t.AddRow(a.name, tablefmt.Percent(conn[1]), tablefmt.Percent(conn[3]),
			tablefmt.Percent(conn[5]), tablefmt.Percent(conn[7]), tablefmt.Percent(sat))
	}
	free := coverage.LHopFree(g, coverage.LHopOptions{MaxL: maxL, Samples: s.Config.Samples, Rng: s.rng(40)})
	t.AddRow("free path (ASesWithIXPs)", tablefmt.Percent(free[1]), tablefmt.Percent(free[3]),
		tablefmt.Percent(free[5]), tablefmt.Percent(free[7]), tablefmt.Percent(free[7]))
	t.AddNote("paper @1,000 brokers: MaxSG/Approx ~85%%, DB 72.53%%, IXPB <=15.70%%, Tier1Only far worse")
	return t, nil
}

// Fig3 reproduces the marginal-effect analysis: the Pearson correlation
// between a candidate's PageRank value and the saturated-connectivity gain
// of adding it, at broker-set sizes |B| = k100 and |B| = k1000. The paper
// observes the correlation collapsing from 0.818 to 0.227.
func (s *Suite) Fig3() (*tablefmt.Table, error) {
	g := s.Top.Graph
	order, pr, err := pagerank.Rank(g)
	if err != nil {
		return nil, err
	}
	t := tablefmt.New("Fig 3. PageRank vs marginal connectivity gain",
		"|B| (PRB)", "candidates", "Pearson correlation")

	for _, k := range []int{s.k100, s.k1000} {
		if k > len(order) {
			k = len(order)
		}
		// Incremental union-find connectivity: each candidate's marginal
		// gain is O(deg) instead of an O(V+E) recomputation.
		inc := coverage.NewIncremental(g)
		for _, b := range order[:k] {
			inc.AddBroker(int(b))
		}
		// Candidates: the next nodes by PageRank after the broker set,
		// which is where PRB would look for broker k+1.
		limit := 150
		var prVals, gains []float64
		for _, cand := range order[k:] {
			if len(prVals) >= limit {
				break
			}
			gains = append(gains, float64(inc.Gain(int(cand))))
			prVals = append(prVals, pr[cand])
		}
		corr, err := stats.Pearson(prVals, gains)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig3 correlation: %w", err)
		}
		t.AddRow(k, len(prVals), corr)
	}
	t.AddNote("paper: correlation 0.818 at |B|=100 drops to 0.227 at |B|=1,000")
	return t, nil
}

// Fig4 reproduces the broker-placement comparison: DB's high-degree picks
// crowd the network core and leave the edge mostly uncovered, while MaxSG
// also covers the outer ring. Nodes are segmented by degree (core = top
// 20%, edge = bottom 50%) and each algorithm's coverage of the segments is
// measured at the same budget.
func (s *Suite) Fig4() (*tablefmt.Table, error) {
	g := s.Top.Graph
	k := s.k1000
	db, err := broker.DegreeBased(g, k)
	if err != nil {
		return nil, err
	}
	maxsg, err := broker.MaxSG(g, k)
	if err != nil {
		return nil, err
	}

	order := g.NodesByDegreeDesc()
	n := len(order)
	coreSet := make([]bool, n)
	edgeSet := make([]bool, n)
	for i, u := range order {
		switch {
		case i < n/5:
			coreSet[u] = true
		case i >= n/2:
			edgeSet[u] = true
		}
	}
	segment := func(brokers []int32) (coreBrokers int, coreCov, edgeCov float64) {
		st := coverage.NewState(g)
		for _, b := range brokers {
			st.Add(int(b))
			if coreSet[b] {
				coreBrokers++
			}
		}
		var coreCovered, coreTotal, edgeCovered, edgeTotal int
		for u := 0; u < n; u++ {
			if coreSet[u] {
				coreTotal++
				if st.IsCovered(u) {
					coreCovered++
				}
			}
			if edgeSet[u] {
				edgeTotal++
				if st.IsCovered(u) {
					edgeCovered++
				}
			}
		}
		return coreBrokers, float64(coreCovered) / float64(coreTotal), float64(edgeCovered) / float64(edgeTotal)
	}
	t := tablefmt.New("Fig 4. Broker placement: core crowding vs edge coverage",
		"algorithm", "brokers in core", "core nodes covered", "edge nodes covered")
	dbCore, dbCoreCov, dbEdgeCov := segment(db)
	sgCore, sgCoreCov, sgEdgeCov := segment(maxsg)
	t.AddRow("DB", dbCore, tablefmt.Percent(dbCoreCov), tablefmt.Percent(dbEdgeCov))
	t.AddRow("MaxSG", sgCore, tablefmt.Percent(sgCoreCov), tablefmt.Percent(sgEdgeCov))
	t.AddNote("paper: DB leaves the network edge mostly uncovered; MaxSG covers the outer ring")
	return t, nil
}
