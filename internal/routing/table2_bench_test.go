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
// hop-unbounded dominated-path search on the 52,079-node Table-2 tier with
// the benchsuite's broker budget and demand (MaxSG k=1064, Zipf(1.1)
// pairs). found and nopath are timed apart because they stress different
// ends of the search: a found pair pays for two meeting frontiers, a
// no-path pair for however much of the smaller side must drain.
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
	// A fixed draw count keeps both classes in workload proportion (~1% of
	// Zipf pairs have no dominated path) and the set-up time bounded.
	var found, nopath [][2]int32
	for i := 0; i < 4000; i++ {
		src, dst := gen.Pair()
		if _, err := routing.BestPathOver(view, inB, int(src), int(dst), routing.Options{}); err == nil {
			found = append(found, [2]int32{src, dst})
		} else {
			nopath = append(nopath, [2]int32{src, dst})
		}
	}
	if len(found) == 0 || len(nopath) == 0 {
		b.Fatalf("%d found, %d no-path pairs: need both", len(found), len(nopath))
	}
	for _, c := range []struct {
		name  string
		pairs [][2]int32
	}{{"found", found}, {"nopath", nopath}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := c.pairs[i%len(c.pairs)]
				sinkPath, _ = routing.BestPathOver(view, inB, int(p[0]), int(p[1]), routing.Options{})
			}
		})
	}
}
