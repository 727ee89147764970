// Benchmarks regenerating every table and figure of the paper (one bench
// per experiment), plus the ablation benchmarks for the design choices
// documented in DESIGN.md (CELF lazy greedy, sampled vs exact l-hop
// evaluation, component-based saturated connectivity).
//
// Benchmarks run at 1/20 scale (~2,600 nodes) so `go test -bench=.` stays
// laptop-fast; use cmd/experiments -scale 1.0 for paper-scale numbers.
package brokerset_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"brokerset"
	"brokerset/internal/broker"
	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/econ"
	"brokerset/internal/epoch"
	"brokerset/internal/experiments"
	"brokerset/internal/pagerank"
	"brokerset/internal/policy"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

const benchScale = 0.05

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchTop   *topology.Topology
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		s, err := experiments.NewSuite(experiments.Config{
			Scale: benchScale, Seed: 1, Samples: 200, SCIterations: 30,
		})
		if err != nil {
			panic(err)
		}
		benchSuite = s
		benchTop = s.Top
		// Warm the cached alliance so per-experiment benches measure the
		// experiment itself.
		if _, err := s.Alliance(); err != nil {
			panic(err)
		}
	})
	return benchSuite
}

func benchExperiment(b *testing.B, id string) {
	s := suite(b)
	e, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkFig1(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig2a(b *testing.B)   { benchExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B)   { benchExperiment(b, "fig2b") }
func BenchmarkFig3(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B)   { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)   { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)   { benchExperiment(b, "fig5c") }
func BenchmarkFig6(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkEcon(b *testing.B)    { benchExperiment(b, "econ") }
func BenchmarkShapley(b *testing.B) { benchExperiment(b, "shapley") }

// --- Ablation: CELF lazy greedy vs naive greedy (Algorithm 1) ---

func BenchmarkGreedyLazy(b *testing.B) {
	s := suite(b)
	k := s.K1000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.GreedyMCB(s.Top.Graph, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyNaive(b *testing.B) {
	s := suite(b)
	k := s.K1000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.GreedyMCBNaive(s.Top.Graph, k); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: exact vs sampled l-hop connectivity evaluation ---

func BenchmarkLHopExact(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	n := s.Top.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverage.LHop(s.Top.Graph, alliance, coverage.LHopOptions{MaxL: 6, Samples: n})
	}
}

func BenchmarkLHopSampled(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverage.LHop(s.Top.Graph, alliance, coverage.LHopOptions{MaxL: 6, Samples: 200})
	}
}

// --- Ablation: saturated connectivity via components is O(V+E) ---

func BenchmarkSaturatedConnectivity(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coverage.SaturatedConnectivity(s.Top.Graph, alliance)
	}
}

// --- Algorithm benches: the paper's complexity claims ---

// MaxSG is the O(k(V+E)) heuristic...
func BenchmarkMaxSG(b *testing.B) {
	s := suite(b)
	k := s.K1000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.MaxSG(s.Top.Graph, k); err != nil {
			b.Fatal(err)
		}
	}
}

// ...and the Algorithm 2 approximation pays the extra stitching cost.
func BenchmarkApproxMCBG(b *testing.B) {
	s := suite(b)
	k := s.K1000()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := broker.ApproxMCBGAdaptive(s.Top.Graph, k, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Compute(s.Top.Graph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateInternet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topology.GenerateInternet(topology.InternetConfig{Scale: benchScale, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Facade-level end-to-end: generate, select, evaluate.
func BenchmarkEndToEndSelect(b *testing.B) {
	net, err := brokerset.GenerateInternet(0.02, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := net.Select(brokerset.StrategyMaxSG, 25)
		if err != nil {
			b.Fatal(err)
		}
		_ = bs.Connectivity()
	}
}

// Shapley exact vs Monte-Carlo at the experiment's panel size.
func BenchmarkShapleyExact(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	v, err := econ.CoverageGame(s.Top.Graph, alliance[:10], 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := econ.ShapleyExact(10, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShapleyMonteCarlo(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	v, err := econ.CoverageGame(s.Top.Graph, alliance[:10], 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := econ.ShapleyMonteCarlo(10, v, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension experiments ---

func BenchmarkExtLoad(b *testing.B)    { benchExperiment(b, "ext-load") }
func BenchmarkExtFailure(b *testing.B) { benchExperiment(b, "ext-failure") }
func BenchmarkExtLength(b *testing.B)  { benchExperiment(b, "ext-length") }

// --- Routing / simulation substrate ---

func BenchmarkQoSBestPath(b *testing.B) {
	net, err := brokerset.GenerateInternet(benchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	bs, err := net.Select(brokerset.StrategyMaxSG, 50)
	if err != nil {
		b.Fatal(err)
	}
	q := bs.QoSEngine(1)
	members := bs.Members()
	src, dst := int(members[0]), int(members[len(members)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.BestPath(src, dst, brokerset.PathConstraints{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyConnectivity(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	r := policy.NewRouter(s.Top, alliance)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Connectivity(100, nil)
	}
}

func BenchmarkExtBGP(b *testing.B) { benchExperiment(b, "ext-bgp") }

// Ablation: incremental union-find connectivity vs batch recomputation for
// marginal-gain probing (the Fig 3 workload).
func BenchmarkMarginalGainsIncremental(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	base := alliance[:s.K100()]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := coverage.NewIncremental(s.Top.Graph)
		for _, br := range base {
			inc.AddBroker(int(br))
		}
		for u := 0; u < 150; u++ {
			inc.Gain(u)
		}
	}
}

func BenchmarkMarginalGainsBatch(b *testing.B) {
	s := suite(b)
	alliance, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	base := alliance[:s.K100()]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < 150; u++ {
			withCand := append(append([]int32(nil), base...), int32(u))
			coverage.SaturatedConnectivity(s.Top.Graph, withCand)
		}
	}
}

func BenchmarkExtFormation(b *testing.B) { benchExperiment(b, "ext-formation") }

// Control-plane 2PC session setup/teardown round trip.
func BenchmarkCtrlPlaneSetup(b *testing.B) {
	s := suite(b)
	brokers, err := s.Alliance()
	if err != nil {
		b.Fatal(err)
	}
	plane := ctrlplane.New(s.Top, nil, brokers)
	src, dst := int(brokers[0]), int(brokers[len(brokers)-1])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := plane.Setup(context.Background(), src, dst, 0.001, routing.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := plane.Teardown(context.Background(), sess); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtOptimality(b *testing.B) { benchExperiment(b, "ext-optimality") }

// --- Query plane: cached vs uncached path serving ---
//
// These run at scale 0.1 (the brokerd default) rather than benchScale so
// the cached-vs-uncached ratio reflects serving-size Dijkstra costs. The
// acceptance bar: BenchmarkQueryPlaneParallel sustains >= 5x the
// queries/sec of BenchmarkQueryPlaneUncached on a warm cache.

const qpBenchScale = 0.1

var (
	qpOnce  sync.Once
	qpPub   *epoch.Publisher
	qpPairs [][2]int
)

func qpSetup(b *testing.B) {
	b.Helper()
	qpOnce.Do(func() {
		top, err := topology.GenerateInternet(topology.InternetConfig{Scale: qpBenchScale, Seed: 1})
		if err != nil {
			panic(err)
		}
		brokers, err := broker.MaxSG(top.Graph, 100)
		if err != nil {
			panic(err)
		}
		qpPub = epoch.NewPublisher(epoch.NewSnapshot(epoch.SnapshotData{
			Top: top, Live: top.Graph, Brokers: brokers, View: routing.DefaultMetrics(top, nil).View(),
		}))
		// Broker-to-broker pairs: MaxSG keeps the set connected, so a
		// dominated path always exists.
		rng := rand.New(rand.NewSource(7))
		for len(qpPairs) < 256 {
			s := int(brokers[rng.Intn(len(brokers))])
			d := int(brokers[rng.Intn(len(brokers))])
			if s != d {
				qpPairs = append(qpPairs, [2]int{s, d})
			}
		}
	})
}

func qpWarm(b *testing.B, qp *queryplane.QueryPlane) {
	b.Helper()
	ctx := context.Background()
	for _, p := range qpPairs {
		if _, _, err := qp.Query(ctx, p[0], p[1], routing.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPlaneUncached is the pre-queryplane serving baseline: one
// Dijkstra per query, single-threaded.
func BenchmarkQueryPlaneUncached(b *testing.B) {
	qpSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := qpPairs[i%len(qpPairs)]
		if _, err := qpPub.Current().BestPath(p[0], p[1], routing.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPlaneMiss measures a cold query end to end: compute plus
// cache/singleflight/pool overhead. The plane's generation is the
// benchmark's own and steps every iteration, and its revalidator refuses
// every stale entry, so no query hits.
func BenchmarkQueryPlaneMiss(b *testing.B) {
	qpSetup(b)
	var gen atomic.Uint64
	qp, err := queryplane.New(queryplane.Config{
		Generation: gen.Load,
		Revalidate: func(*routing.Path, routing.Options, uint64) bool { return false },
		Compute: func(_ context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			return qpPub.Current().BestPath(src, dst, opts)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Add(1)
		p := qpPairs[i%len(qpPairs)]
		if _, _, err := qp.Query(ctx, p[0], p[1], routing.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPlaneHit(b *testing.B) {
	qpSetup(b)
	qp := queryplane.Over(qpPub)
	qpWarm(b, qp)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := qpPairs[i%len(qpPairs)]
		if _, _, err := qp.Query(ctx, p[0], p[1], routing.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryPlaneParallel is the serving benchmark: all cores querying
// a warm cache concurrently (the >= 5x-over-uncached acceptance target).
func BenchmarkQueryPlaneParallel(b *testing.B) {
	qpSetup(b)
	qp := queryplane.Over(qpPub)
	qpWarm(b, qp)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		i := rand.Intn(len(qpPairs))
		for pb.Next() {
			p := qpPairs[i%len(qpPairs)]
			i++
			if _, _, err := qp.Query(ctx, p[0], p[1], routing.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
