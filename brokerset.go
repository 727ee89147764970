// Package brokerset is a library for inter-domain routing brokerage: it
// selects a small set of ASes/IXPs ("brokers") that dominates most
// end-to-end AS paths in an Internet topology, so QoS-guaranteed transit
// can be supervised by the broker coalition, as proposed in "On the
// Feasibility of Inter-Domain Routing via a Small Broker Set" (Liu, Lui,
// Lin, Hui; ICDCS 2017).
//
// The core objects are Network (an AS/IXP topology with business
// relationships) and BrokerSet (a selected broker alliance that can be
// evaluated for connectivity, routed through, and stress-tested under
// policy routing). Selection strategies include the paper's greedy maximum
// coverage (Algorithm 1), the MCBG approximation (Algorithm 2), the
// linear-time MaxSubGraph-Greedy heuristic (Algorithm 3), and the SC, DB,
// PRB, IXPB, and Tier1-Only baselines.
//
// Quick start:
//
//	net, _ := brokerset.GenerateInternet(0.1, 1)
//	bs, _ := net.Select(brokerset.StrategyMaxSG, 100)
//	fmt.Printf("%.2f%% of E2E pairs served\n", 100*bs.Connectivity())
package brokerset

import (
	"fmt"
	"io"
	"math/rand"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/econ"
	"brokerset/internal/policy"
	"brokerset/internal/topology"
)

// Network is an AS-level Internet topology: ASes and IXPs, their links, and
// per-link business relationships.
type Network struct {
	top *topology.Topology
}

// GenerateInternet builds a synthetic Internet topology calibrated to the
// paper's 2014 dataset (52,079 ASes/IXPs at scale 1.0). Equal seeds yield
// identical topologies.
func GenerateInternet(scale float64, seed int64) (*Network, error) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Network{top: top}, nil
}

// GenerateTier builds one of the named calibrated topology tiers:
// "smoke" (~1k nodes), "default" (~5.2k), "table2" (the paper's
// 52,079-node Table-2 dataset), or "future" (a 10x, ~520k-node stress
// tier). Equal seeds yield identical topologies.
func GenerateTier(name string, seed int64) (*Network, error) {
	top, err := topology.GenerateTier(name, seed)
	if err != nil {
		return nil, err
	}
	return &Network{top: top}, nil
}

// TierNames lists the named topology tiers in ascending size order.
func TierNames() []string {
	specs := topology.Tiers()
	names := make([]string, len(specs))
	for i, t := range specs {
		names[i] = t.Name
	}
	return names
}

// Load reads a topology in the brokerset text format (see topology docs);
// real datasets can be converted into it.
func Load(r io.Reader) (*Network, error) {
	top, err := topology.Load(r)
	if err != nil {
		return nil, err
	}
	return &Network{top: top}, nil
}

// Save writes the topology in the brokerset text format.
func (n *Network) Save(w io.Writer) error { return n.top.Save(w) }

// NumNodes returns the total number of ASes and IXPs.
func (n *Network) NumNodes() int { return n.top.NumNodes() }

// NumASes returns the number of AS nodes.
func (n *Network) NumASes() int { return n.top.NumASes() }

// NumIXPs returns the number of IXP nodes.
func (n *Network) NumIXPs() int { return n.top.NumIXPs() }

// NumLinks returns the number of undirected links.
func (n *Network) NumLinks() int { return n.top.Graph.NumEdges() }

// Name returns the human-readable name of node u.
func (n *Network) Name(u int) string { return n.top.Name[u] }

// Class returns the service class of node u ("tier1", "transit", "access",
// "content", "enterprise", "ixp").
func (n *Network) Class(u int) string { return n.top.Class[u].String() }

// IsIXP reports whether node u is an IXP.
func (n *Network) IsIXP(u int) bool { return n.top.IsIXP(u) }

// Degree returns the number of links of node u.
func (n *Network) Degree(u int) int { return n.top.Graph.Degree(u) }

// AlphaForBeta estimates Prob[d(u,v) <= beta] over sampled pairs — the
// (alpha, beta)-graph parameter of the paper's Definition 2. Pass samples
// >= NumNodes() for the exact value.
func (n *Network) AlphaForBeta(beta, samples int) float64 {
	return n.top.Graph.AlphaForBeta(beta, samples, nil)
}

// Strategy names a broker-selection algorithm.
type Strategy string

// Available selection strategies.
const (
	// StrategyGreedy is Algorithm 1: greedy maximum coverage with the
	// (1-1/e) guarantee (CELF-accelerated).
	StrategyGreedy Strategy = "greedy"
	// StrategyApprox is Algorithm 2: greedy coverage core plus stitching
	// brokers guaranteeing B-dominating paths between covered pairs, with
	// the adaptive core sizing that uses the whole budget.
	StrategyApprox Strategy = "approx"
	// StrategyMaxSG is Algorithm 3: the linear-time MaxSubGraph-Greedy
	// heuristic; keeps the broker set connected.
	StrategyMaxSG Strategy = "maxsg"
	// StrategyDegree is the DB baseline: top-k nodes by degree.
	StrategyDegree Strategy = "degree"
	// StrategyPageRank is the PRB baseline: top-k nodes by PageRank.
	StrategyPageRank Strategy = "pagerank"
	// StrategyIXP is the IXPB baseline: all IXPs (k ignored).
	StrategyIXP Strategy = "ixp"
	// StrategyTier1 is the Tier1-Only baseline: all tier-1 ASes (k ignored).
	StrategyTier1 Strategy = "tier1"
	// StrategySetCover is the SC baseline: a randomized dominating set
	// (k ignored; sizes land near 3/4 of all nodes).
	StrategySetCover Strategy = "setcover"
)

// Strategies lists every selection strategy.
func Strategies() []Strategy {
	return []Strategy{
		StrategyGreedy, StrategyApprox, StrategyMaxSG, StrategyDegree,
		StrategyPageRank, StrategyIXP, StrategyTier1, StrategySetCover,
	}
}

// Select runs a selection strategy with broker budget k (ignored by the
// ixp, tier1 and setcover strategies, which have natural sizes).
func (n *Network) Select(s Strategy, k int) (*BrokerSet, error) {
	g := n.top.Graph
	var (
		members []int32
		err     error
	)
	switch s {
	case StrategyGreedy:
		members, err = broker.GreedyMCB(g, k)
	case StrategyApprox:
		res, aerr := broker.ApproxMCBGAdaptive(g, k, 4)
		if aerr != nil {
			err = aerr
		} else {
			members = res.Brokers
		}
	case StrategyMaxSG:
		members, err = broker.MaxSG(g, k)
	case StrategyDegree:
		members, err = broker.DegreeBased(g, k)
	case StrategyPageRank:
		members, err = broker.PageRankBased(g, k)
	case StrategyIXP:
		members, err = broker.IXPBased(g, n.top.IXPMask(), 0)
	case StrategyTier1:
		members, err = broker.Tier1Only(g, n.top.Tier)
	case StrategySetCover:
		members = broker.SetCover(g, nil)
	default:
		return nil, fmt.Errorf("brokerset: unknown strategy %q", s)
	}
	if err != nil {
		return nil, err
	}
	return &BrokerSet{net: n, members: members}, nil
}

// SelectParallel runs a selection strategy with a worker pool of the given
// size (0 = GOMAXPROCS). The greedy and maxsg strategies distribute their
// gain recomputation across the workers and return sets bitwise-identical
// to Select's at any worker count; other strategies are unaffected by
// workers and fall through to Select.
func (n *Network) SelectParallel(s Strategy, k, workers int) (*BrokerSet, error) {
	g := n.top.Graph
	var (
		members []int32
		err     error
	)
	switch s {
	case StrategyGreedy:
		members, err = broker.GreedyMCBParallel(g, k, workers)
	case StrategyMaxSG:
		members, err = broker.MaxSGParallel(g, k, workers)
	default:
		return n.Select(s, k)
	}
	if err != nil {
		return nil, err
	}
	return &BrokerSet{net: n, members: members}, nil
}

// SelectComplete runs MaxSG to completion, returning the broker set that
// dominates the giant component — the paper's "3,540-alliance" analogue.
func (n *Network) SelectComplete() (*BrokerSet, error) {
	members, err := broker.MaxSGComplete(n.top.Graph)
	if err != nil {
		return nil, err
	}
	return &BrokerSet{net: n, members: members}, nil
}

// BrokerSet is a selected broker alliance bound to its network.
type BrokerSet struct {
	net     *Network
	members []int32
}

// Members returns the broker node ids in selection order (copy).
func (b *BrokerSet) Members() []int32 {
	return append([]int32(nil), b.members...)
}

// Size returns the number of brokers.
func (b *BrokerSet) Size() int { return len(b.members) }

// Prefix returns the broker set truncated to its first k members (useful
// with order-significant strategies such as MaxSG and Greedy).
func (b *BrokerSet) Prefix(k int) *BrokerSet {
	if k >= len(b.members) {
		return b
	}
	return &BrokerSet{net: b.net, members: b.members[:k]}
}

// Coverage returns f(B) = |B ∪ N(B)|, the number of covered nodes.
func (b *BrokerSet) Coverage() int {
	return coverage.F(b.net.top.Graph, b.members)
}

// Connectivity returns the saturated E2E connectivity: the fraction of all
// node pairs joined by some B-dominating path.
func (b *BrokerSet) Connectivity() float64 {
	return coverage.SaturatedConnectivity(b.net.top.Graph, b.members)
}

// LHopConnectivity returns the fraction of pairs joined by B-dominating
// paths of at most l hops, for l = 1..maxL. samples <= 0 defaults to 1000;
// samples >= NumNodes() is exact.
func (b *BrokerSet) LHopConnectivity(maxL, samples int) []float64 {
	return coverage.LHop(b.net.top.Graph, b.members, coverage.LHopOptions{MaxL: maxL, Samples: samples})
}

// Route returns one shortest B-dominating path from src to dst (inclusive
// node ids), or an error when none exists.
func (b *BrokerSet) Route(src, dst int) ([]int32, error) {
	n := b.net.NumNodes()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil, fmt.Errorf("brokerset: route endpoints (%d,%d) outside [0,%d)", src, dst, n)
	}
	d := coverage.NewDominated(b.net.top.Graph, b.members)
	p := d.Path(src, dst)
	if p == nil {
		return nil, fmt.Errorf("brokerset: no %d-broker dominated path from %d to %d", len(b.members), src, dst)
	}
	return p, nil
}

// GuaranteesDominatingPaths reports whether every pair of covered nodes is
// joined by a B-dominating path (the MCBG side constraint).
func (b *BrokerSet) GuaranteesDominatingPaths() bool {
	return broker.SatisfiesMCBG(b.net.top.Graph, b.members)
}

// PolicyConnectivity returns the E2E connectivity when ASes obey business
// relationships (valley-free export policy) and only B-dominated edges are
// used, after converting convertFrac of the inter-broker links to free
// bidirectional cooperation links. samples <= 0 defaults to 1000.
func (b *BrokerSet) PolicyConnectivity(convertFrac float64, samples int, seed int64) (float64, error) {
	r := policy.NewRouter(b.net.top, b.members)
	if convertFrac > 0 {
		if _, err := r.ConvertInterBrokerEdges(convertFrac, rand.New(rand.NewSource(seed))); err != nil {
			return 0, err
		}
	}
	return r.Connectivity(samples, rand.New(rand.NewSource(seed+1))), nil
}

// ClassHistogram counts brokers per service class name.
func (b *BrokerSet) ClassHistogram() map[string]int {
	h := b.net.top.ClassHistogram(b.members)
	out := make(map[string]int, len(h))
	for c, count := range h {
		out[c.String()] = count
	}
	return out
}

// MaintainResult describes a broker-set maintenance pass (see Maintain).
type MaintainResult struct {
	// Set is the maintained broker set.
	Set *BrokerSet
	// Added and Removed list the node ids changed relative to the input.
	Added, Removed []int32
	// Connectivity is the maintained set's saturated E2E connectivity.
	Connectivity float64
}

// Maintain adapts a previously selected broker set to this network (e.g. a
// newer topology snapshot): stale brokers are dropped, brokers are added
// greedily until the target saturated connectivity holds, and redundant
// members are pruned. Pass nil as old to build a minimal set for the
// target from scratch.
func (n *Network) Maintain(old *BrokerSet, target float64) (*MaintainResult, error) {
	var members []int32
	if old != nil {
		members = old.members
	}
	res, err := broker.MaintainAvoiding(n.top.Graph, members, target, nil)
	if err != nil {
		return nil, err
	}
	return &MaintainResult{
		Set:          &BrokerSet{net: n, members: res.Brokers},
		Added:        res.Added,
		Removed:      res.Removed,
		Connectivity: res.Connectivity,
	}, nil
}

// --- Economics facade (§7 of the paper) ---

// BargainOutcome is the Nash bargaining agreement between the coalition
// and a hired employee AS.
type BargainOutcome struct {
	// EmployeePrice is the agreed per-unit payment p_j.
	EmployeePrice float64
	// EmployeeUtility is p_j − c.
	EmployeeUtility float64
	// CoalitionUtility is the coalition's worst-case per-unit utility.
	CoalitionUtility float64
}

// NashBargain computes the §7.1 bargaining solution for coalition price
// priceB, per-unit routing cost c, and hop bound beta.
func NashBargain(priceB, cost float64, beta int) (BargainOutcome, error) {
	res, err := econ.NashBargain(econ.BargainParams{PriceB: priceB, Cost: cost, Beta: beta})
	if err != nil {
		return BargainOutcome{}, err
	}
	return BargainOutcome{
		EmployeePrice:    res.PriceJ,
		EmployeeUtility:  res.UtilityJ,
		CoalitionUtility: res.UtilityB,
	}, nil
}

// MarketOutcome is a Stackelberg pricing equilibrium between the coalition
// and its customer ASes.
type MarketOutcome struct {
	// Price is the coalition's optimal routing price p_B.
	Price float64
	// MeanAdoption is the average customer adoption rate a_i.
	MeanAdoption float64
	// CoalitionUtility is the coalition's equilibrium profit.
	CoalitionUtility float64
}

// PriceMarket computes the Stackelberg equilibrium for a synthetic
// population of `customers` lower-tier ASes. highTierInB models high-tier
// ISPs having joined the coalition, which raises lower-tier adoption.
func PriceMarket(customers int, highTierInB bool, seed int64) (MarketOutcome, error) {
	b := econ.Broker{UnitCost: 0.05, HireFraction: 0.1, Beta: 4, MaxPrice: 3}
	eq, err := econ.StackelbergEquilibrium(b, econ.NewCustomerPopulation(customers, highTierInB, seed))
	if err != nil {
		return MarketOutcome{}, err
	}
	return MarketOutcome{
		Price:            eq.Price,
		MeanAdoption:     eq.TotalTraffic / float64(len(eq.Adoption)),
		CoalitionUtility: eq.BrokerUtility,
	}, nil
}

// RevenueShares computes the Shapley-value revenue split (per §7.2) among
// the first `players` brokers of the set, with coalition value proportional
// to the connectivity the sub-coalition provides. players must be <= 20
// and <= Size().
func (b *BrokerSet) RevenueShares(players int, revenueScale float64) ([]float64, error) {
	if players < 1 || players > len(b.members) {
		return nil, fmt.Errorf("brokerset: players %d outside [1, %d]", players, len(b.members))
	}
	v, err := econ.CoverageGame(b.net.top.Graph, b.members[:players], revenueScale)
	if err != nil {
		return nil, err
	}
	return econ.ShapleyExact(players, v)
}
