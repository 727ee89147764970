package routing_test

import (
	"math/rand"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// sinkPath keeps the benchmarked search's result live.
var sinkPath *routing.Path

// table2Fixture is the benchsuite's path_cold set-up at its layer: the
// 52,079-node Table-2 tier (seed 1), MaxSG k=1064, default metrics (freeze
// them into a view to search), and the first `draws` Zipf(1.1) demand pairs.
func table2Fixture(tb testing.TB, draws int) (m *routing.Metrics, inB []bool, pairs [][2]int) {
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
	return routing.DefaultMetrics(top, nil), inB, pairs
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
	m, inB, pairs := table2Fixture(t, 4000)
	view := m.View()
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
// search that only then runs. The bandwidth rows are the found pairs again
// under a floor, each a different share of the tested arcs whose link
// residual shares the floor's octave, the ones that must resolve their link:
// bandwidth at 0.01 Gbps, the floor a session setup searches with (none: the
// same answers as found); bandwidth_octave at 12 Gbps, inside the octave of
// the thinner transit links' 10-16 Gbps; bandwidth_reserved at 0.7 Gbps on
// metrics where every link of those pairs' optimal paths was reserved down
// to 0.5-1 Gbps, that floor's octave, so every such link is looked up and
// some are too thin.
func BenchmarkTable2BestPath(b *testing.B) {
	m, inB, pairs := table2Fixture(b, 4000)
	view := m.View()
	type query struct {
		src, dst int
		opts     routing.Options
	}
	// A fixed draw count keeps both classes in workload proportion (~1% of
	// Zipf pairs have no dominated path) and the set-up time bounded.
	var found, nopath, within8, residual, bandwidth, octave, reserved []query
	rng := rand.New(rand.NewSource(1))
	for _, pair := range pairs {
		q := query{src: pair[0], dst: pair[1]}
		p, err := routing.BestPathOver(view, inB, q.src, q.dst, q.opts)
		if err != nil {
			nopath = append(nopath, q)
			continue
		}
		found = append(found, q)
		bandwidth = append(bandwidth, query{q.src, q.dst, routing.Options{MinBandwidth: 0.01}})
		octave = append(octave, query{q.src, q.dst, routing.Options{MinBandwidth: 12}})
		reserved = append(reserved, query{q.src, q.dst, routing.Options{MinBandwidth: 0.7}})
		for i := 0; i+1 < len(p.Nodes); i++ {
			u, v := p.Nodes[i], p.Nodes[i+1]
			if r := m.Residual(u, v); r > 1 {
				if err := m.Reserve(u, v, r-0.5-0.5*rng.Float64()); err != nil {
					b.Fatal(err)
				}
			}
		}
		if p.Hops() <= 8 {
			within8 = append(within8, query{q.src, q.dst, routing.Options{MaxHops: 8}})
		}
		if p.Hops() >= 2 {
			residual = append(residual, query{q.src, q.dst, routing.Options{MaxHops: p.Hops() - 1}})
		}
	}
	reservedView := m.View()
	for _, c := range []struct {
		name    string
		view    *routing.View
		queries []query
	}{{"found", view, found}, {"nopath", view, nopath}, {"maxhops8", view, within8}, {"maxhops_residual", view, residual},
		{"bandwidth", view, bandwidth}, {"bandwidth_octave", view, octave}, {"bandwidth_reserved", reservedView, reserved}} {
		if len(c.queries) == 0 {
			b.Fatalf("no %s queries among the draws", c.name)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := c.queries[i%len(c.queries)]
				sinkPath, _ = routing.BestPathOver(c.view, inB, q.src, q.dst, q.opts)
			}
		})
	}
}
