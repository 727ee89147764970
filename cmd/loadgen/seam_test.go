package main

import (
	"context"
	"testing"

	"brokerset/internal/daemon"
	"brokerset/internal/federation"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// TestEveryPlaneRefusesAMovedEpoch: the two places that serve a publisher
// through a query plane — the daemon and a federation region — each refuse to re-serve a path against an epoch that moved between the
// lookup's generation read and the walk: a lookup that read generation g-1
// must not have its entry checked against, and stamped for, snapshot g. (The
// daemon's hand-wired plane always pinned this; the region's copy walked
// whatever snapshot was current.)
func TestEveryPlaneRefusesAMovedEpoch(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.New(top, daemon.Config{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := federation.New(top, federation.Config{Regions: 3, BrokerBudget: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		qp      *queryplane.QueryPlane
		brokers []int32 // in the plane's own node ids
	}{
		{"daemon", d.QueryPlane(), d.Snapshot().Brokers()},
		{"region", fab.Region(0).QP, fab.Region(0).Brokers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p *routing.Path
			for _, dst := range tc.brokers[1:] {
				if p, _, err = tc.qp.Query(ctx, int(tc.brokers[0]), int(dst), routing.Options{}); err == nil {
					break
				}
			}
			if p == nil {
				t.Fatalf("no broker pair has a path: %v", err)
			}
			gen := tc.qp.Stats().Generation
			if !tc.qp.Servable(p, routing.Options{}, gen) {
				t.Fatalf("path %v is not servable at the generation %d it was computed under", p.Nodes, gen)
			}
			if tc.qp.Servable(p, routing.Options{}, gen-1) {
				t.Fatalf("a lookup that read generation %d had its entry checked against snapshot %d", gen-1, gen)
			}
		})
	}
}
