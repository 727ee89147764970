// Package sim runs traffic-workload simulations of the brokerage scheme:
// bandwidth demands between AS pairs arrive over time, the broker
// coalition's routing engine admits or rejects them onto B-dominated QoS
// paths, and the simulator reports admission rates, latency, and broker
// load distribution. It quantifies the load-concentration concern the
// paper raises about centralized mediators ("these schemes seriously
// increase the burden of selected mediators") for any broker-selection
// strategy.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brokerset/internal/coverage"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// Demand is one bandwidth request between two ASes.
type Demand struct {
	// Src and Dst are node ids.
	Src, Dst int32
	// Bandwidth is the requested capacity in Gbps.
	Bandwidth float64
	// Start and Duration are in abstract time units.
	Start, Duration float64
}

// WorkloadConfig parameterizes synthetic demand generation.
type WorkloadConfig struct {
	// Demands is the number of requests to generate.
	Demands int
	// MeanBandwidth is the mean requested Gbps (exponentially distributed).
	MeanBandwidth float64
	// MeanDuration is the mean holding time (exponentially distributed).
	MeanDuration float64
	// Horizon is the arrival window; arrivals are uniform over [0, Horizon).
	Horizon float64
	// Seed drives generation.
	Seed int64
}

// DefaultWorkloadConfig returns a moderate workload.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{Demands: 2000, MeanBandwidth: 0.5, MeanDuration: 10, Horizon: 100, Seed: 1}
}

// GenerateWorkload builds a gravity-model workload over the topology:
// endpoint choice is degree-weighted (big networks source and sink more
// traffic), with content providers further boosted as sources — matching
// the video-heavy traffic mix the paper motivates with.
func GenerateWorkload(top *topology.Topology, cfg WorkloadConfig) ([]Demand, error) {
	if cfg.Demands < 1 {
		return nil, fmt.Errorf("sim: demands must be >= 1, got %d", cfg.Demands)
	}
	if cfg.MeanBandwidth <= 0 || cfg.MeanDuration <= 0 || cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: mean bandwidth/duration and horizon must be > 0")
	}
	n := top.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("sim: topology too small (%d nodes)", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Degree-weighted endpoint pool; IXPs excluded (they switch, they do
	// not originate traffic). Content providers tripled as sources.
	var sinkPool, srcPool []int32
	for u := 0; u < n; u++ {
		if top.IsIXP(u) {
			continue
		}
		w := top.Graph.Degree(u)
		if w < 1 {
			w = 1
		}
		// Cap the weight so mega-hubs don't absorb the whole workload.
		if w > 50 {
			w = 50
		}
		for i := 0; i < w; i++ {
			sinkPool = append(sinkPool, int32(u))
			srcPool = append(srcPool, int32(u))
		}
		if top.Class[u] == topology.ClassContent {
			for i := 0; i < 2*w; i++ {
				srcPool = append(srcPool, int32(u))
			}
		}
	}
	if len(srcPool) == 0 {
		return nil, fmt.Errorf("sim: no eligible endpoints")
	}
	demands := make([]Demand, 0, cfg.Demands)
	for len(demands) < cfg.Demands {
		src := srcPool[rng.Intn(len(srcPool))]
		dst := sinkPool[rng.Intn(len(sinkPool))]
		if src == dst {
			continue
		}
		demands = append(demands, Demand{
			Src:       src,
			Dst:       dst,
			Bandwidth: rng.ExpFloat64() * cfg.MeanBandwidth,
			Start:     rng.Float64() * cfg.Horizon,
			Duration:  rng.ExpFloat64() * cfg.MeanDuration,
		})
	}
	sort.Slice(demands, func(i, j int) bool { return demands[i].Start < demands[j].Start })
	return demands, nil
}

// Result summarizes a simulation run.
type Result struct {
	// Admitted, Rejected count demands by outcome. Rejected splits into
	// Uncoverable (no dominated path at all) and CapacityRejected.
	Admitted, Rejected int
	Uncoverable        int
	CapacityRejected   int
	// AdmissionRate is Admitted / total.
	AdmissionRate float64
	// MeanLatencyMs averages admitted path latencies.
	MeanLatencyMs float64
	// MeanHops averages admitted path hop counts.
	MeanHops float64
	// BrokerLoad[i] counts admitted demands whose path traversed broker i
	// (same order as the brokers slice passed to Run).
	BrokerLoad []int
	// TopBrokerShare is the busiest broker's share of all broker
	// traversals — the mediator-burden metric.
	TopBrokerShare float64
	// GiniLoad is the Gini coefficient of the broker load distribution
	// (0 = perfectly even, 1 = fully concentrated).
	GiniLoad float64
}

// admission is a run in progress: the control plane admitting the demands,
// the sessions it holds ordered by expiry, and the tallies so far.
type admission struct {
	p       *ctrlplane.Plane
	metrics *routing.Metrics
	opts    routing.Options
	// comp labels the dominated components: "is there any dominated path
	// at all" in O(1), so rejected demands don't need a second path search.
	comp []int32
	// index maps a broker to its slot in res.BrokerLoad.
	index map[int32]int
	live  expiryHeap
	res   *Result

	latencySum, hopsSum float64
}

// expire tears down every session that ended at or before now.
func (a *admission) expire(ctx context.Context, now float64) error {
	for a.live.Len() > 0 && a.live[0].at <= now {
		item := heap.Pop(&a.live).(expiryItem)
		if err := a.p.Teardown(ctx, item.s); err != nil {
			return fmt.Errorf("sim: release: %w", err)
		}
	}
	return nil
}

// arrive admits d onto the best dominated path with its bandwidth free on
// every link, through the control plane's two-phase commit, or rejects it.
func (a *admission) arrive(ctx context.Context, d Demand) {
	res := a.res
	// Skip the path search entirely for uncoverable pairs.
	if a.comp[d.Src] < 0 || a.comp[d.Src] != a.comp[d.Dst] {
		res.Rejected++
		res.Uncoverable++
		return
	}
	s, err := a.p.Setup(ctx, int(d.Src), int(d.Dst), d.Bandwidth, a.opts)
	if err != nil {
		res.Rejected++
		res.CapacityRejected++
		return
	}
	res.Admitted++
	for i, u := range s.Path {
		if i > 0 {
			a.latencySum += a.metrics.Latency(s.Path[i-1], u)
		}
		if b, ok := a.index[u]; ok {
			res.BrokerLoad[b]++
		}
	}
	a.hopsSum += float64(len(s.Path) - 1)
	heap.Push(&a.live, expiryItem{at: d.Start + d.Duration, s: s})
}

// newAdmission boots a control plane for brokers over metrics and readies a
// run against it.
func newAdmission(top *topology.Topology, metrics *routing.Metrics, brokers []int32, opts routing.Options) *admission {
	a := &admission{
		p:       ctrlplane.New(top, metrics, brokers),
		metrics: metrics,
		opts:    opts,
		index:   make(map[int32]int, len(brokers)),
		res:     &Result{BrokerLoad: make([]int, len(brokers))},
	}
	for i, b := range brokers {
		a.index[b] = i
	}
	a.comp, _ = coverage.NewDominated(top.Graph, brokers).Components()
	return a
}

// Run simulates the workload against the coalition's control plane, booted
// for brokers over metrics: demands arrive in start order, expire after
// their durations (released before later arrivals), and are admitted onto
// best dominated paths by the same two-phase commit the daemon runs. The
// run ends with every session released.
func Run(top *topology.Topology, metrics *routing.Metrics, brokers []int32, demands []Demand, opts routing.Options) (*Result, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	a := newAdmission(top, metrics, brokers, opts)
	ctx := context.Background()
	for _, d := range demands {
		if err := a.expire(ctx, d.Start); err != nil {
			return nil, err
		}
		a.arrive(ctx, d)
	}
	if err := a.expire(ctx, math.Inf(1)); err != nil {
		return nil, err
	}
	res := a.res
	total := res.Admitted + res.Rejected
	res.AdmissionRate = float64(res.Admitted) / float64(total)
	if res.Admitted > 0 {
		res.MeanLatencyMs = a.latencySum / float64(res.Admitted)
		res.MeanHops = a.hopsSum / float64(res.Admitted)
	}
	res.TopBrokerShare, res.GiniLoad = loadStats(res.BrokerLoad)
	return res, nil
}

// loadStats returns the max share and Gini coefficient of a load vector.
func loadStats(load []int) (topShare, gini float64) {
	if len(load) == 0 {
		return 0, 0
	}
	var total, max int
	for _, l := range load {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 0, 0
	}
	topShare = float64(max) / float64(total)
	sorted := append([]int(nil), load...)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, l := range sorted {
		weighted += float64(l) * float64(2*(i+1)-len(sorted)-1)
		cum += float64(l)
	}
	gini = weighted / (float64(len(sorted)) * cum)
	return topShare, gini
}

type expiryItem struct {
	at float64
	s  *ctrlplane.Session
}

type expiryHeap []expiryItem

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
