package federation

import (
	"context"
	"errors"
	"math"
	"testing"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/graph"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// fedTop builds the 3-region test topology: per region, m ASes in a ring,
// each a member of the region's anchor IXP; nBorders border IXPs between
// each adjacent region pair, each with members as(r,0..1) and as(r+1,0..1).
// Node ids: ASes 0..3m-1 (as(r,i) = r*m+i), anchors 3m..3m+2, then borders
// pairwise (region 0-1 first).
func fedTop(t *testing.T, m, nBorders int) *topology.Topology {
	t.Helper()
	nAS := 3 * m
	n := nAS + 3 + 2*nBorders
	b := graph.NewBuilder(n)
	top := &topology.Topology{
		Class: make([]topology.Class, n),
		Tier:  make([]uint8, n),
		Name:  make([]string, n),
	}
	type edge struct{ u, v int }
	var member []edge
	as := func(r, i int) int { return r*m + i }
	for r := 0; r < 3; r++ {
		anchor := nAS + r
		top.Class[anchor] = topology.ClassIXP
		for i := 0; i < m; i++ {
			b.AddEdge(as(r, i), as(r, (i+1)%m))
			b.AddEdge(as(r, i), anchor)
			member = append(member, edge{as(r, i), anchor})
		}
	}
	for r := 0; r < 2; r++ {
		for j := 0; j < nBorders; j++ {
			border := nAS + 3 + r*nBorders + j
			top.Class[border] = topology.ClassIXP
			for _, u := range []int{as(r, 0), as(r, 1), as(r+1, 0), as(r+1, 1)} {
				b.AddEdge(u, border)
				member = append(member, edge{u, border})
			}
		}
	}
	top.Graph = b.MustBuild()
	for i := range top.Name {
		top.Name[i] = "n"
	}
	for _, e := range member {
		top.SetRel(e.u, e.v, topology.RelMember)
	}
	return top
}

// testLatency is the calibrated per-link latency: unique enough that best
// paths are unambiguous, simple enough to recompute in assertions.
func testLatency(u, v int32) float64 { return 1 + 0.01*float64(u+v) }

// fedFabric builds a 3-region fabric over fedTop with calibrated metrics:
// every link testLatency and 100 Gbps.
func fedFabric(t *testing.T, m, nBorders int, cfg Config) *Fabric {
	t.Helper()
	top := fedTop(t, m, nBorders)
	cfg.Regions = 3
	if cfg.Metrics == nil {
		cfg.Metrics = routing.DefaultMetrics(top, nil)
		top.Graph.Edges(func(u, v int) bool {
			cfg.Metrics.SetLatency(int32(u), int32(v), testLatency(int32(u), int32(v)))
			cfg.Metrics.SetCapacity(int32(u), int32(v), 100)
			return true
		})
	}
	f, err := New(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pathLatency recomputes a global path's latency from the calibrated
// assignment.
func pathLatency(nodes []int32) float64 {
	var lat float64
	for i := 0; i+1 < len(nodes); i++ {
		lat += testLatency(nodes[i], nodes[i+1])
	}
	return lat
}

// TestStitchedLatencyDeterministic is the acceptance criterion: a
// cross-region query's stitched end-to-end latency equals the sum of the
// per-region segment latencies plus crossings x the IXP crossing cost,
// exactly (same calibrated metric assignment in every region).
func TestStitchedLatencyDeterministic(t *testing.T) {
	const crossing = 2.0
	f := fedFabric(t, 4, 1, Config{CrossingCostMs: crossing, Seed: 7})
	src, dst := int32(2), int32(10) // as(0,2) -> as(2,2): must cross 0->1->2
	sp, err := f.StitchPath(context.Background(), src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Crossings != 2 || len(sp.Segments) != 3 {
		t.Fatalf("got %d segments / %d crossings, want 3 / 2", len(sp.Segments), sp.Crossings)
	}
	var sum float64
	for i, seg := range sp.Segments {
		if seg.Region != i {
			t.Fatalf("segment %d owned by region %d, want %d", i, seg.Region, i)
		}
		if got := pathLatency(seg.Nodes); math.Abs(got-seg.LatencyMs) > 1e-9 {
			t.Fatalf("segment %d quotes %.6f ms, calibrated links sum to %.6f", i, seg.LatencyMs, got)
		}
		sum += seg.LatencyMs
	}
	want := sum + float64(sp.Crossings)*crossing
	if math.Abs(sp.LatencyMs-want) > 1e-9 {
		t.Fatalf("stitched latency %.9f, want sum(segments)+crossings*cost = %.9f", sp.LatencyMs, want)
	}
	// The joined path runs src -> border(0,1) -> border(1,2) -> dst with the
	// shared joints deduplicated.
	if sp.Nodes[0] != src || sp.Nodes[len(sp.Nodes)-1] != dst {
		t.Fatalf("stitched path %v does not run %d..%d", sp.Nodes, src, dst)
	}
	seen := map[int32]int{}
	for _, n := range sp.Nodes {
		seen[n]++
		if seen[n] > 1 {
			t.Fatalf("node %d appears twice in stitched path %v", n, sp.Nodes)
		}
	}
	if seen[15] != 1 || seen[16] != 1 {
		t.Fatalf("stitched path %v does not cross both border IXPs 15 and 16", sp.Nodes)
	}
	// Identical query, identical answer (determinism across the cache).
	sp2, err := f.StitchPath(context.Background(), src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.LatencyMs != sp.LatencyMs {
		t.Fatalf("second stitch quoted %.9f, first %.9f", sp2.LatencyMs, sp.LatencyMs)
	}
}

func TestSetupTeardownCrossRegion(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 200}})
	ctx := context.Background()
	s, err := f.Setup(ctx, 2, 10, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Session(s.ID) != s || s.Epoch != 1 {
		t.Fatalf("Setup handed out %+v, the table holds %+v; want one epoch-1 record", s, f.Session(s.ID))
	}
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every region holds its segment: capacity is deducted on each
	// segment's first hop in the owning region's plane.
	for _, seg := range s.Stitched.Segments {
		if len(seg.Nodes) < 2 {
			continue
		}
		reg := f.Region(seg.Region)
		u, _ := reg.Local(seg.Nodes[0])
		v, _ := reg.Local(seg.Nodes[1])
		if got := reg.Plane.Available(u, v); math.Abs(got-95) > 1e-9 {
			t.Fatalf("region %d hop (%d,%d): available %.3f, want 95", seg.Region, seg.Nodes[0], seg.Nodes[1], got)
		}
	}
	if err := f.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Commits != 1 || st.Teardowns != 1 {
		t.Fatalf("stats %+v, want 1 commit / 1 teardown", st)
	}
}

func TestSetupSameRegion(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7})
	s, err := f.Setup(context.Background(), 0, 3, 2, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Stitched.Segments); got != 1 {
		t.Fatalf("same-region session has %d segments, want 1", got)
	}
	if f.Stats().PeerMessages != 0 {
		t.Fatalf("same-region setup used %d peer messages, want 0", f.Stats().PeerMessages)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsufficientBandwidthAborts(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7})
	if _, err := f.Setup(context.Background(), 2, 10, 1000, routing.Options{}); err == nil {
		t.Fatal("setup of 1000 Gbps over 100 Gbps links succeeded")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("failed setup leaked: %v", err)
	}
}

// TestCapacityExhaustionConservedAbort saturates the transit region's only
// links into the exit border through its own plane — without republishing
// its snapshot — so the stitch still quotes a segment but the transit
// X-PREPARE nacks. The home must conserved-abort everywhere.
func TestCapacityExhaustionConservedAbort(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7})
	ctx := context.Background()
	reg := f.Region(1)
	var local []*ctrlplane.Session
	for _, g := range [][2]int32{{4, 16}, {5, 16}} {
		u, _ := reg.Local(g[0])
		v, _ := reg.Local(g[1])
		r := reg.Plane.CommitBatch(ctx, []ctrlplane.BatchOp{{Kind: ctrlplane.BatchSetup, Path: []int32{u, v}, Bandwidth: 50}})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		local = append(local, r.Session)
	}
	// Region 1's published snapshot is now stale (still quotes 100 Gbps):
	// the stitch succeeds, the transit prepare refuses, the setup aborts.
	if _, err := f.Setup(ctx, 2, 10, 60, routing.Options{}); err == nil {
		t.Fatal("setup through a saturated transit region succeeded")
	}
	if st := f.Stats(); st.Aborts == 0 {
		t.Fatalf("stats %+v, want an abort", st)
	}
	// Home region 0 must hold nothing (its prepare was rolled back), and
	// region 1 must hold exactly its two local sessions.
	if err := f.Region(0).Plane.CheckInvariants(nil); err != nil {
		t.Fatal(err)
	}
	if err := reg.Plane.CheckInvariants(local); err != nil {
		t.Fatal(err)
	}
}

func TestGossipMarksBorderDown(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7})
	f.gossip()
	if _, _, _, ok := f.PeerDigest(0, 1); !ok {
		t.Fatal("region 0 has no digest for region 1 after a gossip round")
	}
	// Region 1's copy of border 15 crashes; gossip spreads the news.
	reg := f.Region(1)
	l, ok := reg.Local(15)
	if !ok {
		t.Fatal("border 15 not in region 1 subtopology")
	}
	reg.Plane.Crash(l)
	f.gossip()
	if !f.PeerBorderDown(0, 1, 15) {
		t.Fatal("region 0 did not learn border 15 is down in region 1")
	}
	// The only 0-1 border is down: stitching 0->2 must fail...
	if _, err := f.StitchPath(context.Background(), 2, 10, routing.Options{}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("stitch over a dead border: err = %v, want ErrNoRoute", err)
	}
	// ...and recover once the broker heals and gossip catches up.
	reg.Plane.Recover(l)
	f.gossip()
	if _, err := f.StitchPath(context.Background(), 2, 10, routing.Options{}); err != nil {
		t.Fatalf("stitch after border recovery: %v", err)
	}
}

// TestHealerRestitches crashes the border broker a committed session is
// stitched through (in the transit region's plane) and checks the healer
// moves the session onto the alternate border.
func TestHealerRestitches(t *testing.T) {
	f := fedFabric(t, 4, 2, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 500}})
	ctx := context.Background()
	s, err := f.Setup(ctx, 2, 10, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The 0-1 joint is the first node of region 1's segment.
	joint := s.Stitched.Segments[1].Nodes[0]
	reg := f.Region(1)
	l, ok := reg.Local(joint)
	if !ok {
		t.Fatalf("joint %d not local to region 1", joint)
	}
	reg.Plane.Crash(l)
	tr := obs.NewTracer(1 << 10)
	f.SetTracer(tr)
	hctx, root := tr.Root(ctx, "test.heal", 0)
	rep := f.Heal(hctx)
	root.End()
	if rep.Restitched != 1 {
		t.Fatalf("heal report %+v, want 1 restitched", rep)
	}
	// The break half of break-before-make rides the heal's trace: each
	// transit region's release sub-span sits beside the federation.heal span.
	released := map[string]bool{}
	for _, sp := range tr.Trace(root.TraceID) {
		if sp.Name == "federation.sub_release" {
			for _, a := range sp.Attrs {
				if a.Key == "region" {
					released[a.Val] = true
				}
			}
		}
	}
	if !released["1"] || !released["2"] {
		t.Fatalf("heal trace %#x has release sub-spans for regions %v, want 1 and 2", root.TraceID, released)
	}
	if s = f.Session(s.ID); s == nil || s.Epoch != 2 {
		t.Fatalf("session %+v after heal, want standing at epoch 2", s)
	}
	for _, n := range s.Stitched.Nodes {
		if n == joint {
			t.Fatalf("healed path %v still crosses dead border %d", s.Stitched.Nodes, joint)
		}
	}
	reg.Plane.Recover(l)
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHealAbortDropsSession: a session the healer has to abort stops being a
// standing session — Session and Sessions are the fabric's one session
// table, and a holder of the id reads "gone", not "aborted forever".
func TestHealAbortDropsSession(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 500}})
	ctx := context.Background()
	kept, err := f.Setup(ctx, 0, 3, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.Setup(ctx, 2, 10, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Session(s.ID); got == nil || *got != *s || len(f.Sessions()) != 2 {
		t.Fatalf("after setup: Session(%d) = %+v, %d standing; want %+v and 2", s.ID, got, len(f.Sessions()), s)
	}
	// With the regions in a line, losing the transit region leaves no route.
	f.CrashRegion(1)
	if rep := f.Heal(ctx); rep.Aborted != 1 {
		t.Fatalf("heal report %+v, want 1 aborted", rep)
	}
	if got := f.Session(s.ID); got != nil {
		t.Fatalf("Session(%d) = %+v after heal-abort, want nil", s.ID, got)
	}
	if all := f.Sessions(); len(all) != 1 || *all[0] != *kept {
		t.Fatalf("Sessions() = %v after heal-abort, want only the intra-region session %d", all, kept.ID)
	}
	f.RecoverRegion(1)
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedRegionSkippedByStitch reroutes around a crashed transit
// region when the region graph allows it; with a line of regions it
// reports no route.
func TestCrashedRegionSkippedByStitch(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7})
	f.CrashRegion(1)
	if _, err := f.StitchPath(context.Background(), 2, 10, routing.Options{}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("stitch through crashed transit region: err = %v, want ErrNoRoute", err)
	}
	if _, err := f.StitchPath(context.Background(), 0, 3, routing.Options{}); err != nil {
		t.Fatalf("intra-region stitch while region 1 down: %v", err)
	}
	f.RecoverRegion(1)
	if _, err := f.StitchPath(context.Background(), 2, 10, routing.Options{}); err != nil {
		t.Fatalf("stitch after region recovery: %v", err)
	}
}

// TestBreakerFastFailsSetups trips region 1's breaker by exhausting
// retries against it while crashed, then checks a fresh setup fast-fails
// without touching the wire.
func TestBreakerFastFailsSetups(t *testing.T) {
	f := fedFabric(t, 4, 1, Config{Seed: 7,
		Retry: ctrlplane.RetryConfig{MaxAttempts: 2, BreakerThreshold: 1, BreakerCooldown: 1000, LeaseTTL: 500}})
	ctx := context.Background()
	// Stitch first (while region 1 is reachable), then crash it between
	// stitch and prepare by racing: simplest is to crash it and drive a
	// setup whose stitch is served from region snapshots (reads don't need
	// the sub-coordinator)... stitching skips crashed regions, so instead
	// trip the breaker directly via a teardown's release timing out.
	s, err := f.Setup(ctx, 2, 10, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.CrashRegion(1)
	// The session's transit release can't be delivered: backlogged, breaker
	// records the timeout.
	if err := f.Teardown(ctx, s); err != nil {
		t.Fatal(err)
	}
	if f.Stats().BreakerTrips == 0 {
		t.Fatal("no breaker trip after release timed out against crashed region")
	}
	f.RecoverRegion(1)
	if _, err := f.Setup(ctx, 2, 10, 5, routing.Options{}); err == nil {
		t.Fatal("setup through an open breaker succeeded")
	}
	if f.Stats().BreakerFastFails == 0 {
		t.Fatal("setup did not fast-fail through the open breaker")
	}
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledSetupsSpareTheBreaker is the regression test for a client
// hanging up tripping a peer's circuit: a setup whose context ended says
// nothing about the transit region's health, so however many of them time
// out against a lossy bus, the next caller is not fast-failed.
func TestCancelledSetupsSpareTheBreaker(t *testing.T) {
	for _, tc := range []struct {
		name     string
		src      int32 // 15 is the 0-1 border itself: no home segment, straight onto the peer bus
		hangUpAt ctrlplane.MsgType
	}{
		{"already cancelled", 15, 0},
		{"cancelled mid-setup", 2, ctrlplane.MsgXPrepareAck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fedFabric(t, 4, 1, Config{Seed: 7,
				Retry:      ctrlplane.RetryConfig{MaxAttempts: 2, BreakerThreshold: 3, BreakerCooldown: 1000, LeaseTTL: 500},
				PeerFaults: &ctrlplane.FaultConfig{Seed: 7}})
			ft := f.peerFT
			ft.Partition(ctrlplane.PeerAddr(1), true) // everything toward region 1 is lost
			for i := 0; i < 3; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				ft.OnDeliver = func(m ctrlplane.Message) {
					if m.Type == tc.hangUpAt {
						cancel()
					}
				}
				if tc.hangUpAt == 0 {
					cancel()
				}
				if _, err := f.Setup(ctx, tc.src, 10, 5, routing.Options{}); err == nil {
					t.Fatal("setup under a cancelled context committed")
				}
				cancel()
			}
			if st := f.Stats(); st.BreakerTrips != 0 {
				t.Fatalf("stats %+v: cancelled setups tripped a breaker", st)
			}
			ft.OnDeliver = nil
			ft.Partition(ctrlplane.PeerAddr(1), false)
			if _, err := f.Setup(context.Background(), tc.src, 10, 5, routing.Options{}); err != nil {
				t.Fatalf("setup after three hang-ups: %v", err)
			}
			if st := f.Stats(); st.BreakerFastFails != 0 {
				t.Fatalf("stats %+v: a healthy region was fast-failed", st)
			}
			if err := f.Reconcile(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
