package routing_test

import (
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// sinkPath keeps the benchmarked search's result live.
var sinkPath *routing.Path

// BenchmarkTable2BestPath is the layer rung for the /path miss path: one
// dominated-path search on the 52,079-node Table-2 tier with the
// benchsuite's broker budget and demand (MaxSG k=1064, Zipf(1.1) pairs).
// found and nopath are timed apart because they stress different ends of
// the search: a found pair pays for two meeting frontiers, a no-path pair
// for however much of the smaller side must drain. The hop-bounded rows are
// the found pairs again: maxhops8 under a bound the unbounded optimum fits
// (the common case — it is answered by that one search), maxhops_residual
// under a bound one hop short of it, the worst case for the label-setting
// search that only then runs.
func BenchmarkTable2BestPath(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 1064)
	if err != nil {
		b.Fatal(err)
	}
	inB := make([]bool, top.NumNodes())
	for _, u := range brokers {
		inB[u] = true
	}
	view := routing.DefaultMetrics(top, nil).View()
	gen, err := workload.NewPairGen(top, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	type query struct {
		src, dst int
		opts     routing.Options
	}
	// A fixed draw count keeps both classes in workload proportion (~1% of
	// Zipf pairs have no dominated path) and the set-up time bounded.
	var found, nopath, within8, residual []query
	for i := 0; i < 4000; i++ {
		src, dst := gen.Pair()
		q := query{src: int(src), dst: int(dst)}
		p, err := routing.BestPathOver(view, inB, q.src, q.dst, q.opts)
		if err != nil {
			nopath = append(nopath, q)
			continue
		}
		found = append(found, q)
		if p.Hops() <= 8 {
			within8 = append(within8, query{q.src, q.dst, routing.Options{MaxHops: 8}})
		}
		if p.Hops() >= 2 {
			residual = append(residual, query{q.src, q.dst, routing.Options{MaxHops: p.Hops() - 1}})
		}
	}
	for _, c := range []struct {
		name    string
		queries []query
	}{{"found", found}, {"nopath", nopath}, {"maxhops8", within8}, {"maxhops_residual", residual}} {
		if len(c.queries) == 0 {
			b.Fatalf("no %s queries among the draws", c.name)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := c.queries[i%len(c.queries)]
				sinkPath, _ = routing.BestPathOver(view, inB, q.src, q.dst, q.opts)
			}
		})
	}
}
