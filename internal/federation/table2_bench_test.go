package federation_test

import (
	"context"
	"testing"

	"brokerset/internal/federation"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// BenchmarkTable2FedCycle is the layer rung for a federated session: on the
// 52,079-node Table-2 tier split into three regions with the benchsuite's
// broker budget and demand (MaxSG k=1064 per region, Zipf(1.1) pairs), one
// iteration is what a client's cycle costs the fabric — a cold stitch of a
// fresh pair, the Setup that follows it, the Teardown. Setup is handed the
// same options the daemon hands it, so a second search hiding inside it
// shows up here as a cycle that costs two stitches.
func BenchmarkTable2FedCycle(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := federation.New(top, federation.Config{
		Regions: 3, BrokerBudget: 1064, Seed: 1, Metrics: routing.DefaultMetrics(top, nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewPairGen(top, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	routed := 0
	for i := 0; i < b.N; i++ {
		src, dst := gen.Pair()
		if _, err := f.StitchPath(ctx, src, dst, routing.Options{}); err != nil {
			continue // ~1 pair in 7 has no stitched path; a client stops there too
		}
		s, err := f.Setup(ctx, src, dst, 0.01, routing.Options{})
		if err != nil {
			b.Fatalf("setup %d -> %d after a successful stitch: %v", src, dst, err)
		}
		if err := f.Teardown(ctx, s); err != nil {
			b.Fatal(err)
		}
		routed++
	}
	b.ReportMetric(float64(routed)/float64(b.N), "routed/op")
}
