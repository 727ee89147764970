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

// table2Fixture is the benchsuite's path_cold set-up at its layer: the
// 52,079-node Table-2 tier (seed 1), MaxSG k=1064, default metrics frozen
// into a view, and the first `draws` Zipf(1.1) demand pairs.
func table2Fixture(tb testing.TB, draws int) (view *routing.View, inB []bool, pairs [][2]int) {
	tb.Helper()
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		tb.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 1064)
	if err != nil {
		tb.Fatal(err)
	}
	inB = make([]bool, top.NumNodes())
	for _, u := range brokers {
		inB[u] = true
	}
	gen, err := workload.NewPairGen(top, 1.1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < draws; i++ {
		src, dst := gen.Pair()
		pairs = append(pairs, [2]int{int(src), int(dst)})
	}
	return routing.DefaultMetrics(top, nil).View(), inB, pairs
}

// TestTable2SearchReadsAPrefix pins what the latency-ordered rows are for.
// MaxSG's brokers are the hubs and every hop of a dominated path touches one,
// so a search is a scan of hub rows; read whole, the benchmark's found pairs
// cost 16,071 arcs each to pop 84 nodes, 13,455 of them after a candidate
// path already bounded what could still matter. Cutting each row at the first
// arc past that bound, the same searches read 2,334 (arcs + pops; the count
// is the program's own and repeats exactly) — about half of it the first
// endpoint's row, read whole before any bound existed. Read a chunk at a
// time, with the rest of a row queued as a cursor, they read 1,125.
func TestTable2SearchReadsAPrefix(t *testing.T) {
	if testing.Short() || routing.RaceEnabled {
		t.Skip("generates the Table-2 tier and counts arcs over 4,000 searches: 1.4 s, 20 s under the race detector, which has nothing to find in a count")
	}
	view, inB, pairs := table2Fixture(t, 4000)
	found, scanned, requeued := 0, 0, 0
	for _, p := range pairs {
		if ok, work, cursors := routing.MeetWork(view, inB, p[0], p[1]); ok {
			found++
			scanned += work
			requeued += cursors
		}
	}
	mean := scanned / found
	t.Logf("%d found searches, %d arcs read + nodes popped each, %.1f row cursors queued each", found, mean, float64(requeued)/float64(found))
	if mean > 1500 {
		t.Errorf("a found search reads %d arcs, want <= 1,500 (2,334 with popped rows read to the cut, 16,071 read whole)", mean)
	}
}

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
	view, inB, pairs := table2Fixture(b, 4000)
	type query struct {
		src, dst int
		opts     routing.Options
	}
	// A fixed draw count keeps both classes in workload proportion (~1% of
	// Zipf pairs have no dominated path) and the set-up time bounded.
	var found, nopath, within8, residual []query
	for _, pair := range pairs {
		q := query{src: pair[0], dst: pair[1]}
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
