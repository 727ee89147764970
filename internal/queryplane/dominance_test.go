package queryplane

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/epoch"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// domHarness is a plane over a fabricated compute whose paths carry a fixed
// bottleneck, a test-owned generation, and a Revalidate hook that judges a
// path by that bottleneck and records the options it was asked about.
type domHarness struct {
	qp         *QueryPlane
	gen        atomic.Uint64
	bottleneck float64
	noPath     bool
	computed   []routing.Options
	revalidate []routing.Options
}

func newDomHarness(t *testing.T, bottleneck float64) *domHarness {
	t.Helper()
	h := &domHarness{bottleneck: bottleneck}
	h.gen.Store(1)
	qp, err := New(Config{
		Generation: h.gen.Load,
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			h.computed = append(h.computed, opts)
			if h.noPath {
				return nil, fmt.Errorf("routing: no dominated path %d -> %d", src, dst)
			}
			p := &routing.Path{Nodes: []int32{int32(src), int32(dst)}, Latency: 1, Bottleneck: h.bottleneck}
			if opts.MinBandwidth > 0 {
				// The constrained optimum is a different, longer path.
				p = &routing.Path{Nodes: []int32{int32(src), 99, int32(dst)}, Latency: 2, Bottleneck: opts.MinBandwidth}
			}
			return p, nil
		},
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) bool {
			h.revalidate = append(h.revalidate, opts)
			return gen == h.gen.Load() && p.Bottleneck >= opts.MinBandwidth
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.qp = qp
	return h
}

func TestDominanceTable(t *testing.T) {
	ctx := context.Background()
	relaxed, floor := routing.Options{}, routing.Options{MinBandwidth: 5}

	t.Run("relaxed entry with the bandwidth answers the constrained query", func(t *testing.T) {
		h := newDomHarness(t, 8)
		if _, _, err := h.qp.Query(ctx, 1, 2, relaxed); err != nil {
			t.Fatal(err)
		}
		p, cached, err := h.qp.Query(ctx, 1, 2, floor)
		if err != nil || !cached || p.Latency != 1 {
			t.Fatalf("constrained query = %+v cached=%v err=%v, want the relaxed path as a hit", p, cached, err)
		}
		if len(h.computed) != 1 {
			t.Fatalf("%d computes, want 1", len(h.computed))
		}
		if st := h.qp.Stats(); st.Hits != 1 || st.HitsDominated != 1 || st.Misses != 1 {
			t.Fatalf("stats = %+v", st)
		}
		// Resolve rides the same rule.
		if p, cached, err := h.qp.Resolve(ctx, 1, 2, floor); err != nil || !cached || p.Latency != 1 {
			t.Fatalf("Resolve = %+v cached=%v err=%v", p, cached, err)
		}
	})

	t.Run("relaxed entry short of bandwidth survives the probe", func(t *testing.T) {
		h := newDomHarness(t, 3)
		if _, _, err := h.qp.Query(ctx, 1, 2, relaxed); err != nil {
			t.Fatal(err)
		}
		p, cached, err := h.qp.Query(ctx, 1, 2, floor)
		if err != nil || cached || p.Latency != 2 {
			t.Fatalf("constrained query = %+v cached=%v err=%v, want the computed detour", p, cached, err)
		}
		if len(h.computed) != 2 || h.computed[1] != floor {
			t.Fatalf("computes = %+v, want the relaxed then the exact query", h.computed)
		}
		if len(h.revalidate) != 1 || h.revalidate[0] != floor {
			t.Fatalf("revalidations = %+v, want one under the constrained options", h.revalidate)
		}
		// Un-evicted and un-restamped: the relaxed query is still a plain
		// hit, with no compute and no revalidation of its own.
		p, cached, err = h.qp.Query(ctx, 1, 2, relaxed)
		if err != nil || !cached || p.Latency != 1 {
			t.Fatalf("relaxed query after the probe = %+v cached=%v err=%v", p, cached, err)
		}
		if len(h.computed) != 2 || len(h.revalidate) != 1 {
			t.Fatalf("relaxed re-query computed or revalidated: %d computes, %d revalidations", len(h.computed), len(h.revalidate))
		}
		// The exact key is now cached in its own right.
		if p, cached, _ := h.qp.Query(ctx, 1, 2, floor); !cached || p.Latency != 2 {
			t.Fatalf("exact key not cached: %+v cached=%v", p, cached)
		}
		if st := h.qp.Stats(); st.Evictions != 0 || st.HitsDominated != 0 || st.HitsRevalidated != 0 || st.CacheEntries != 2 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("no relaxed path means no constrained path, one compute", func(t *testing.T) {
		h := newDomHarness(t, 0)
		h.noPath = true
		if _, _, err := h.qp.Query(ctx, 1, 2, floor); err == nil {
			t.Fatal("constrained query found a path the relaxed one lacks")
		}
		if len(h.computed) != 1 || h.computed[0] != relaxed {
			t.Fatalf("computes = %+v, want exactly the relaxed query", h.computed)
		}
		if st := h.qp.Stats(); st.Queries != 1 || st.Misses != 1 || st.Errors != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("stale relaxed entry is checked under the constrained options", func(t *testing.T) {
		h := newDomHarness(t, 8)
		if _, _, err := h.qp.Query(ctx, 1, 2, relaxed); err != nil {
			t.Fatal(err)
		}
		h.gen.Add(1) // reservations moved
		p, cached, err := h.qp.Query(ctx, 1, 2, floor)
		if err != nil || !cached || p.Latency != 1 {
			t.Fatalf("constrained query = %+v cached=%v err=%v", p, cached, err)
		}
		// The relaxed lookup revalidates under its own options and re-stamps;
		// the bandwidth check then runs under the constrained ones.
		if len(h.revalidate) != 2 || h.revalidate[0] != relaxed || h.revalidate[1] != floor {
			t.Fatalf("revalidations = %+v", h.revalidate)
		}
		if len(h.computed) != 1 {
			t.Fatalf("%d computes, want 1", len(h.computed))
		}
		if st := h.qp.Stats(); st.HitsDominated != 1 || st.HitsRevalidated != 1 || st.Hits != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})
}

// TestDominanceMatchesBestPath is the differential: on a topology with
// random reservations, a plane with every relaxed entry warm answers
// bandwidth-constrained queries with exactly the latency a search under the
// constraint finds on the same snapshot, path or no path.
func TestDominanceMatchesBestPath(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	brokers, err := broker.MaxSG(top.Graph, 40)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	metrics := routing.DefaultMetrics(top, nil)
	top.Graph.Edges(func(u, v int) bool {
		if rng.Intn(3) == 0 {
			a, b := int32(u), int32(v)
			if err := metrics.Reserve(a, b, metrics.Available(a, b)*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	pub := epoch.NewPublisher(epoch.NewSnapshot(epoch.SnapshotData{
		Top: top, Live: top.Graph, Brokers: brokers, View: metrics.View(),
	}))
	snap := pub.Current()
	computes := 0
	qp, err := New(Config{
		Generation: pub.Epoch,
		Compute: func(ctx context.Context, src, dst int, opts routing.Options) (*routing.Path, error) {
			computes++
			return snap.BestPath(src, dst, opts)
		},
		Revalidate: func(p *routing.Path, opts routing.Options, gen uint64) bool {
			return snap.ID() == gen && snap.PathValid(p, opts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	n := top.NumNodes()
	dominated, detours, noPath := 0, 0, 0
	for i := 0; i < 600; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		rp, _, rerr := qp.Query(ctx, src, dst, routing.Options{}) // warm the relaxed entry
		opts := routing.Options{MinBandwidth: 1 + 60*rng.Float64()}
		if rerr == nil && i%2 == 0 {
			// Straddle the relaxed optimum's bottleneck, where the rule flips.
			opts.MinBandwidth = rp.Bottleneck * (0.9 + 0.2*rng.Float64())
			if opts.MinBandwidth <= 0 {
				continue
			}
		}
		before := computes
		got, cached, gerr := qp.Query(ctx, src, dst, opts)
		want, werr := snap.BestPath(src, dst, opts)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%d -> %d bw %.3f: plane err %v, search err %v", src, dst, opts.MinBandwidth, gerr, werr)
		}
		if werr != nil {
			noPath++
			continue
		}
		if math.Abs(got.Latency-want.Latency) > 1e-9 {
			t.Fatalf("%d -> %d bw %.3f: plane latency %.6f, search %.6f", src, dst, opts.MinBandwidth, got.Latency, want.Latency)
		}
		if !snap.PathValid(got, opts) {
			t.Fatalf("%d -> %d bw %.3f: served path %v lacks the bandwidth", src, dst, opts.MinBandwidth, got.Nodes)
		}
		if cached {
			dominated++
			if computes != before {
				t.Fatalf("%d -> %d: a hit computed", src, dst)
			}
		} else {
			detours++
		}
	}
	t.Logf("%d dominated hits, %d exact computes, %d without a path", dominated, detours, noPath)
	if dominated < 50 || detours < 50 || noPath < 10 {
		t.Fatalf("differential did not exercise every branch: %d dominated, %d detours, %d no-path", dominated, detours, noPath)
	}
	if st := qp.Stats(); int(st.HitsDominated) != dominated {
		t.Fatalf("HitsDominated = %d, want %d", st.HitsDominated, dominated)
	}
}
