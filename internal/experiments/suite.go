// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment returns a tablefmt.Table whose rows mirror
// what the paper reports; EXPERIMENTS.md records paper-vs-measured values.
//
// All experiments run against one shared synthetic topology (see
// DESIGN.md's substitution table) and deterministic seeds, so results are
// exactly reproducible. Scale 1.0 reproduces the paper's 52,079-node
// dataset; the default 0.1 keeps tests and benchmarks fast with
// connectivity percentages that match full scale to within ~1–2 points.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/tablefmt"
	"brokerset/internal/topology"
)

// Paper-scale reference broker budgets (Table 1).
const (
	paperNodes = 52079
	paperK100  = 100
	paperK1000 = 1000
)

// Config parameterizes an experiment suite.
type Config struct {
	// Scale of the synthetic topology relative to the paper's dataset.
	Scale float64
	// Seed drives the topology and every sampled evaluation.
	Seed int64
	// Samples is the number of BFS sources for sampled connectivity
	// estimates (0 → 800).
	Samples int
	// SCIterations is the number of SC-algorithm runs for Fig 2a (0 → 300).
	SCIterations int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Samples <= 0 {
		c.Samples = 800
	}
	if c.SCIterations <= 0 {
		c.SCIterations = 300
	}
	return c
}

// Suite holds the shared topology and caches the expensive broker sets.
type Suite struct {
	Config Config
	Top    *topology.Topology

	k100, k1000 int

	alliance []int32 // MaxSGComplete output ("3,540-alliance" analogue)
}

// NewSuite generates the topology for cfg.
func NewSuite(cfg Config) (*Suite, error) {
	cfg = cfg.withDefaults()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	n := top.NumNodes()
	s := &Suite{
		Config: cfg,
		Top:    top,
		k100:   scaleBudget(paperK100, n),
		k1000:  scaleBudget(paperK1000, n),
	}
	return s, nil
}

// scaleBudget converts a paper-scale broker budget to this topology's size.
func scaleBudget(paperK, n int) int {
	k := int(math.Round(float64(paperK) * float64(n) / paperNodes))
	if k < 1 {
		k = 1
	}
	return k
}

// K100 returns this suite's analogue of the paper's 100-broker budget.
func (s *Suite) K100() int { return s.k100 }

// K1000 returns this suite's analogue of the paper's 1,000-broker budget.
func (s *Suite) K1000() int { return s.k1000 }

// Alliance returns (computing once) the complete MaxSG broker set — the
// analogue of the paper's 3,540-alliance.
func (s *Suite) Alliance() ([]int32, error) {
	if s.alliance == nil {
		a, err := broker.MaxSGComplete(s.Top.Graph)
		if err != nil {
			return nil, err
		}
		s.alliance = a
	}
	return s.alliance, nil
}

// rng returns a deterministic sub-generator for a named evaluation.
func (s *Suite) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Config.Seed*1_000_003 + salt))
}

// connectivity is a shorthand for saturated connectivity under a broker set.
func (s *Suite) connectivity(brokers []int32) float64 {
	return coverage.SaturatedConnectivity(s.Top.Graph, brokers)
}

// An Experiment regenerates one paper table or figure.
type Experiment struct {
	// ID is the paper's label ("table1", "fig2b", ...).
	ID string
	// Description says what the paper shows there.
	Description string
	// Run produces the table.
	Run func(*Suite) (*tablefmt.Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Description: "alliance size vs QoS coverage, ours vs prior work", Run: (*Suite).Table1},
		{ID: "table2", Description: "dataset summary (nodes, edges, giant component)", Run: (*Suite).Table2},
		{ID: "table3", Description: "l-hop E2E connectivity across topology classes", Run: (*Suite).Table3},
		{ID: "table4", Description: "path inflation: alliance vs free path selection", Run: (*Suite).Table4},
		{ID: "table5", Description: "top brokers by rank with service classes", Run: (*Suite).Table5},
		{ID: "fig1", Description: "topology structure: tiers, IXP core/edge layering", Run: (*Suite).Fig1},
		{ID: "fig2a", Description: "CDF of SC-algorithm broker set sizes (300 runs)", Run: (*Suite).Fig2a},
		{ID: "fig2b", Description: "l-hop connectivity of all selection algorithms", Run: (*Suite).Fig2b},
		{ID: "fig3", Description: "PageRank vs marginal-connectivity correlation decay", Run: (*Suite).Fig3},
		{ID: "fig4", Description: "broker placement: core crowding of DB vs MaxSG spread", Run: (*Suite).Fig4},
		{ID: "fig5a", Description: "alliance composition; broker-only E2E share", Run: (*Suite).Fig5a},
		{ID: "fig5b", Description: "connectivity vs % inter-broker links made bidirectional", Run: (*Suite).Fig5b},
		{ID: "fig5c", Description: "directional business-relationship policy degradation", Run: (*Suite).Fig5c},
		{ID: "fig6", Description: "economic interactions: bargaining and payment flows", Run: (*Suite).Fig6},
		{ID: "econ", Description: "Stackelberg equilibrium; high-tier inclusion effect", Run: (*Suite).Econ},
		{ID: "shapley", Description: "Shapley revenue split and coalition stability", Run: (*Suite).Shapley},
		{ID: "ext-load", Description: "extension: broker load under traffic simulation", Run: (*Suite).ExtLoad},
		{ID: "ext-failure", Description: "extension: resilience to broker failures", Run: (*Suite).ExtFailure},
		{ID: "ext-length", Description: "extension: Problem 4 budget vs path-length tolerance", Run: (*Suite).ExtLength},
		{ID: "ext-bgp", Description: "extension: free vs BGP valley-free vs dominated path quality", Run: (*Suite).ExtBGP},
		{ID: "ext-formation", Description: "extension: sequential coalition formation dynamics", Run: (*Suite).ExtFormation},
		{ID: "ext-optimality", Description: "extension: measured approximation ratios vs exact optimum", Run: (*Suite).ExtOptimality},
		{ID: "ext-market", Description: "extension: §7 market scenarios — pricing, admission, Shapley settlement", Run: (*Suite).ExtMarket},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// sortedClasses returns the classes of a histogram sorted by descending
// count for stable table output.
func sortedClasses(h map[topology.Class]int) []topology.Class {
	classes := make([]topology.Class, 0, len(h))
	for c := range h {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if h[classes[i]] != h[classes[j]] {
			return h[classes[i]] > h[classes[j]]
		}
		return classes[i] < classes[j]
	})
	return classes
}
