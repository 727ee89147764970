package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

func testTopology(t testing.TB) *topology.Topology {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateInternet: %v", err)
	}
	return top
}

func TestGenerateWorkload(t *testing.T) {
	top := testTopology(t)
	cfg := WorkloadConfig{Demands: 500, MeanBandwidth: 1, MeanDuration: 5, Horizon: 50, Seed: 2}
	demands, err := GenerateWorkload(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) != 500 {
		t.Fatalf("got %d demands, want 500", len(demands))
	}
	prev := -1.0
	for i, d := range demands {
		if d.Src == d.Dst {
			t.Fatalf("demand %d has identical endpoints", i)
		}
		if top.IsIXP(int(d.Src)) || top.IsIXP(int(d.Dst)) {
			t.Fatalf("demand %d uses an IXP endpoint", i)
		}
		if d.Bandwidth < 0 || d.Duration < 0 {
			t.Fatalf("demand %d has negative bandwidth/duration", i)
		}
		if d.Start < prev {
			t.Fatalf("demands not sorted by start time at %d", i)
		}
		prev = d.Start
		if d.Start >= cfg.Horizon {
			t.Fatalf("demand %d starts after horizon", i)
		}
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	top := testTopology(t)
	bad := []WorkloadConfig{
		{Demands: 0, MeanBandwidth: 1, MeanDuration: 1, Horizon: 1},
		{Demands: 10, MeanBandwidth: 0, MeanDuration: 1, Horizon: 1},
		{Demands: 10, MeanBandwidth: 1, MeanDuration: 0, Horizon: 1},
		{Demands: 10, MeanBandwidth: 1, MeanDuration: 1, Horizon: 0},
	}
	for i, cfg := range bad {
		if _, err := GenerateWorkload(top, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateWorkloadDeterministic(t *testing.T) {
	top := testTopology(t)
	cfg := DefaultWorkloadConfig()
	cfg.Demands = 100
	a, err := GenerateWorkload(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateWorkload(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different demands at %d", i)
		}
	}
}

func TestRunAdmitsAndTracksLoad(t *testing.T) {
	top := testTopology(t)
	brokers, err := broker.MaxSG(top.Graph, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultWorkloadConfig()
	cfg.Demands = 400
	demands, err := GenerateWorkload(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(top, routing.DefaultMetrics(top, nil), brokers, demands, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted+res.Rejected != 400 {
		t.Fatalf("admitted %d + rejected %d != 400", res.Admitted, res.Rejected)
	}
	if res.Rejected != res.Uncoverable+res.CapacityRejected {
		t.Fatalf("rejection split inconsistent: %d != %d + %d",
			res.Rejected, res.Uncoverable, res.CapacityRejected)
	}
	if res.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if res.AdmissionRate <= 0 || res.AdmissionRate > 1 {
		t.Fatalf("admission rate %f", res.AdmissionRate)
	}
	if res.MeanLatencyMs <= 0 || res.MeanHops <= 0 {
		t.Fatalf("latency %f / hops %f not positive", res.MeanLatencyMs, res.MeanHops)
	}
	var totalLoad int
	for _, l := range res.BrokerLoad {
		totalLoad += l
	}
	if totalLoad == 0 {
		t.Fatal("no broker carried traffic")
	}
	if res.TopBrokerShare <= 0 || res.TopBrokerShare > 1 {
		t.Fatalf("top broker share %f", res.TopBrokerShare)
	}
	if res.GiniLoad < 0 || res.GiniLoad > 1 {
		t.Fatalf("Gini %f outside [0,1]", res.GiniLoad)
	}
}

// TestRunHoldsCommittedSessions steps a run the way Run does: between any
// two arrivals every admitted, unexpired demand is a StateCommitted session
// of the control plane and exactly those sessions account for every held
// Gbps (CheckInvariants), and after the last expiry nothing is held.
func TestRunHoldsCommittedSessions(t *testing.T) {
	top := testTopology(t)
	brokers, err := broker.MaxSG(top.Graph, 30)
	if err != nil {
		t.Fatal(err)
	}
	demands, err := GenerateWorkload(top, WorkloadConfig{Demands: 300, MeanBandwidth: 20, MeanDuration: 50, Horizon: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	metrics := routing.DefaultMetrics(top, rand.New(rand.NewSource(5)))
	a := newAdmission(top, metrics, brokers, routing.Options{})
	ctx := context.Background()
	held := func(now float64) []*ctrlplane.Session {
		t.Helper()
		var ss []*ctrlplane.Session
		for _, item := range a.live {
			if item.at <= now {
				t.Fatalf("session %d outlived its expiry %f at %f", item.s.ID, item.at, now)
			}
			if item.s.State != ctrlplane.StateCommitted {
				t.Fatalf("admitted session %d is %v before its expiry", item.s.ID, item.s.State)
			}
			ss = append(ss, item.s)
		}
		return ss
	}
	for i, d := range demands {
		if err := a.expire(ctx, d.Start); err != nil {
			t.Fatal(err)
		}
		a.arrive(ctx, d)
		if i%25 == 0 {
			if err := a.p.CheckInvariants(held(d.Start)); err != nil {
				t.Fatalf("after demand %d: %v", i, err)
			}
		}
	}
	res := a.res
	if res.Admitted == 0 || res.CapacityRejected == 0 {
		t.Fatalf("want both admissions and capacity rejections, got %+v", res)
	}
	if got := a.live.Len(); got == 0 || got > res.Admitted {
		t.Fatalf("%d live sessions at the last arrival, %d admitted", got, res.Admitted)
	}
	if err := a.expire(ctx, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if st := a.p.Stats(); st.Commits != res.Admitted || st.Teardowns != res.Admitted {
		t.Fatalf("plane committed %d and tore down %d of %d admitted", st.Commits, st.Teardowns, res.Admitted)
	}
	if err := a.p.CheckInvariants(nil); err != nil {
		t.Fatalf("capacity held after the last expiry: %v", err)
	}
	top.Graph.Edges(func(u, v int) bool {
		if r, c := metrics.Residual(int32(u), int32(v)), metrics.Capacity(int32(u), int32(v)); math.Abs(r-c) > 1e-6 {
			t.Fatalf("link (%d,%d) still has %f of %f Gbps reserved", u, v, c-r, c)
		}
		return true
	})
}

func TestRunEmptyWorkload(t *testing.T) {
	top := testTopology(t)
	if _, err := Run(top, nil, []int32{0}, nil, routing.Options{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// Offered load beyond capacity must reject demands; shrinking bandwidth
// must raise the admission rate.
func TestRunAdmissionRespondsToLoad(t *testing.T) {
	top := testTopology(t)
	brokers, err := broker.MaxSG(top.Graph, 30)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(meanBW float64) float64 {
		cfg := WorkloadConfig{Demands: 600, MeanBandwidth: meanBW, MeanDuration: 50, Horizon: 10, Seed: 3}
		demands, err := GenerateWorkload(top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(top, routing.DefaultMetrics(top, rand.New(rand.NewSource(5))), brokers, demands, routing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.AdmissionRate
	}
	light := rate(0.05)
	heavy := rate(20)
	if heavy >= light {
		t.Fatalf("admission rate should fall under heavy load: light %f, heavy %f", light, heavy)
	}
}

func TestLoadStats(t *testing.T) {
	top, gini := loadStats([]int{10, 0, 0, 0})
	if top != 1 {
		t.Errorf("top share = %f, want 1", top)
	}
	if gini < 0.7 {
		t.Errorf("concentrated Gini = %f, want high", gini)
	}
	topEven, giniEven := loadStats([]int{5, 5, 5, 5})
	if math.Abs(topEven-0.25) > 1e-9 {
		t.Errorf("even top share = %f, want 0.25", topEven)
	}
	if math.Abs(giniEven) > 1e-9 {
		t.Errorf("even Gini = %f, want 0", giniEven)
	}
	if ts, g := loadStats(nil); ts != 0 || g != 0 {
		t.Errorf("empty load stats = %f, %f", ts, g)
	}
	if ts, g := loadStats([]int{0, 0}); ts != 0 || g != 0 {
		t.Errorf("zero load stats = %f, %f", ts, g)
	}
}

func TestFailBrokers(t *testing.T) {
	top := testTopology(t)
	brokers, err := broker.MaxSGComplete(top.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FailBrokers(top, brokers, 0.2, 300, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBrokers != len(brokers)/5 {
		t.Fatalf("failed %d of %d, want ~20%%", res.FailedBrokers, len(brokers))
	}
	if res.ConnectivityAfter > res.ConnectivityBefore {
		t.Fatalf("connectivity increased after failures: %f -> %f",
			res.ConnectivityBefore, res.ConnectivityAfter)
	}
	if res.ReroutedFraction <= 0 || res.ReroutedFraction > 1 {
		t.Fatalf("rerouted fraction %f outside (0,1]", res.ReroutedFraction)
	}
	// Zero failures: nothing changes.
	none, err := FailBrokers(top, brokers, 0, 100, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if none.ConnectivityAfter != none.ConnectivityBefore || none.ReroutedFraction != 1 {
		t.Fatalf("no-failure run changed state: %+v", none)
	}
	if _, err := FailBrokers(top, brokers, 1.5, 10, nil); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}
