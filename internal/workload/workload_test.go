package workload

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/epoch"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

func testTop(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPairGen(t *testing.T) {
	top := testTop(t)
	g, err := NewPairGen(top, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.nodes) >= top.NumNodes() {
		t.Fatal("IXPs not excluded from endpoint pool")
	}
	seen := make(map[int32]int)
	for i := 0; i < 5000; i++ {
		src, dst := g.Pair()
		if src == dst {
			t.Fatal("src == dst")
		}
		for _, u := range []int32{src, dst} {
			if top.IsIXP(int(u)) {
				t.Fatalf("IXP %d drawn as endpoint", u)
			}
			seen[u]++
		}
	}
	// Zipf demand: the head must dominate but not monopolize.
	var max, total int
	for _, c := range seen {
		total += c
		if c > max {
			max = c
		}
	}
	if share := float64(max) / float64(total); share < 0.05 || share > 0.95 {
		t.Fatalf("head share = %f, not Zipf-shaped", share)
	}
	// Deterministic under the same seed.
	g2, _ := NewPairGen(top, 1.1, 7)
	s1, d1 := g2.Pair()
	g3, _ := NewPairGen(top, 1.1, 7)
	s2, d2 := g3.Pair()
	if s1 != s2 || d1 != d2 {
		t.Fatal("same seed produced different pairs")
	}
	if _, err := NewPairGen(top, 1.0, 1); err == nil {
		t.Fatal("zipf exponent 1.0 accepted")
	}
}

// fakeTarget alternates found/cached outcomes and counts calls.
type fakeTarget struct{ calls atomic.Int64 }

func (f *fakeTarget) Query(src, dst int32) (Outcome, error) {
	n := f.calls.Add(1)
	time.Sleep(50 * time.Microsecond)
	switch n % 4 {
	case 0:
		return Outcome{}, nil // no path
	case 1:
		return Outcome{Found: true}, nil
	default:
		return Outcome{Found: true, Cached: true}, nil
	}
}

func TestRunReport(t *testing.T) {
	top := testTop(t)
	ft := &fakeTarget{}
	newGen := func(w int) (*PairGen, error) { return NewPairGen(top, 1.2, int64(w)+1) }
	rep, err := Run(ft, newGen, Config{Concurrency: 4, Requests: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 400 {
		t.Fatalf("requests = %d, want 400", rep.Requests)
	}
	if got := ft.calls.Load(); got != 400 {
		t.Fatalf("target saw %d calls", got)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Hits != 200 || rep.NotFound != 100 {
		t.Fatalf("hits = %d notfound = %d, want 200/100", rep.Hits, rep.NotFound)
	}
	if rep.HitRate != 0.5 {
		t.Fatalf("hit rate = %f", rep.HitRate)
	}
	if rep.QPS <= 0 || rep.P50 <= 0 || rep.P50 > rep.P99 {
		t.Fatalf("report stats broken: %+v", rep)
	}
	if s := rep.String(); s == "" {
		t.Fatal("empty report string")
	}
}

func TestRunAgainstPlaneTarget(t *testing.T) {
	top := testTop(t)
	brokers, err := broker.MaxSG(top.Graph, 20)
	if err != nil {
		t.Fatal(err)
	}
	pub := epoch.NewPublisher(epoch.NewSnapshot(epoch.SnapshotData{
		Top: top, Live: top.Graph, Brokers: brokers, View: routing.DefaultMetrics(top, nil).View(),
	}))
	qp := queryplane.Over(pub)
	target := &PlaneTarget{Plane: qp}
	newGen := func(w int) (*PairGen, error) { return NewPairGen(top, 1.3, int64(w)*13+1) }
	rep, err := Run(target, newGen, Config{Concurrency: 4, Requests: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d (first latencies %v)", rep.Errors, rep.P50)
	}
	// Zipf head-heavy demand against a warm cache must produce hits.
	if rep.Hits == 0 {
		t.Fatal("no cache hits under Zipf demand")
	}
	st := qp.Stats()
	if st.Queries != 600 {
		t.Fatalf("plane saw %d queries", st.Queries)
	}
}

func TestRunValidation(t *testing.T) {
	bad := func(w int) (*PairGen, error) { return nil, fmt.Errorf("boom") }
	if _, err := Run(&fakeTarget{}, bad, Config{Concurrency: 1, Requests: 1}); err == nil {
		t.Fatal("generator error swallowed")
	}
}
