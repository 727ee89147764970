package brokerset

import (
	"context"
	"fmt"
	"math/rand"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
	"brokerset/internal/sim"
)

// QoSEngine is the broker coalition's path-stitching service: it computes
// latency-optimal B-dominated paths with bandwidth admission control over
// synthetic per-link QoS metrics.
type QoSEngine struct {
	set    *BrokerSet
	engine *routing.Engine
	// plane is the bandwidth broker: the coalition control plane over the
	// engine's metrics. The first Reserve builds it, so path-only users
	// never boot the per-broker ledgers.
	plane *ctrlplane.Plane
}

// QoSEngine builds the routing service for the broker set. seed drives the
// synthetic link metrics (latency/capacity by link type).
func (b *BrokerSet) QoSEngine(seed int64) *QoSEngine {
	metrics := routing.DefaultMetrics(b.net.top, rand.New(rand.NewSource(seed)))
	return &QoSEngine{
		set:    b,
		engine: routing.NewEngine(b.net.top, metrics, b.members),
	}
}

// QoSPath is a stitched route with its QoS characteristics.
type QoSPath struct {
	// Nodes is the hop sequence, endpoints inclusive.
	Nodes []int32
	// LatencyMs is the end-to-end latency in milliseconds.
	LatencyMs float64
	// BottleneckGbps is the minimum available link capacity on the path.
	BottleneckGbps float64
}

// PathConstraints bounds a QoS path query. The zero value means
// unconstrained.
type PathConstraints struct {
	// MaxHops caps the AS hop count (0 = unbounded) — the paper's
	// Problem 4 length constraint per connection.
	MaxHops int
	// MinBandwidthGbps requires this much available capacity per link.
	MinBandwidthGbps float64
	// BrokersOnly forbids hired non-broker transit on intermediate hops.
	BrokersOnly bool
}

func toOptions(c PathConstraints) routing.Options {
	return routing.Options{
		MaxHops:      c.MaxHops,
		MinBandwidth: c.MinBandwidthGbps,
		BrokersOnly:  c.BrokersOnly,
	}
}

func toQoSPath(p *routing.Path) *QoSPath {
	return &QoSPath{Nodes: p.Nodes, LatencyMs: p.Latency, BottleneckGbps: p.Bottleneck}
}

// BestPath returns the minimum-latency dominated path satisfying c.
func (q *QoSEngine) BestPath(src, dst int, c PathConstraints) (*QoSPath, error) {
	p, err := q.engine.BestPath(src, dst, toOptions(c))
	if err != nil {
		return nil, err
	}
	return toQoSPath(p), nil
}

// Alternatives returns up to k latency-diverse dominated paths, best first.
func (q *QoSEngine) Alternatives(src, dst, k int, c PathConstraints) ([]*QoSPath, error) {
	paths, err := q.engine.KAlternatives(src, dst, k, toOptions(c))
	if err != nil {
		return nil, err
	}
	out := make([]*QoSPath, len(paths))
	for i, p := range paths {
		out[i] = toQoSPath(p)
	}
	return out, nil
}

// Session is an admitted bandwidth reservation: a session committed by the
// control plane's two-phase commit across the brokers owning its hops.
type Session struct {
	q *QoSEngine
	s *ctrlplane.Session
}

// Path returns the session's current route, described against the live
// link state.
func (s *Session) Path() *QoSPath { return toQoSPath(s.q.engine.Describe(s.s.Path)) }

// Reserve admits a gbps session from src to dst onto the best feasible
// dominated path (the bandwidth-broker function). It errors when admission
// control rejects the request.
func (q *QoSEngine) Reserve(src, dst int, gbps float64, c PathConstraints) (*Session, error) {
	if q.plane == nil {
		q.plane = ctrlplane.New(q.set.net.top, q.engine.Metrics(), q.set.members)
	}
	s, err := q.plane.Setup(context.Background(), src, dst, gbps, toOptions(c))
	if err != nil {
		return nil, err
	}
	return &Session{q: q, s: s}, nil
}

// Release frees the session's bandwidth. Releasing twice is an error.
func (s *Session) Release() error { return s.q.plane.Teardown(context.Background(), s.s) }

// FailLink marks a link as failed; live sessions keep their allocations
// until rerouted or released.
func (q *QoSEngine) FailLink(u, v int) { q.engine.Metrics().FailLink(int32(u), int32(v)) }

// Reroute moves the session onto a fresh feasible path after failures. When
// none exists the session is left released and an error is returned.
func (s *Session) Reroute(c PathConstraints) error {
	next, err := s.q.plane.Repath(context.Background(), s.s, toOptions(c))
	if err == nil {
		s.s = next
	}
	return err
}

// TrafficReport summarizes a simulated workload run (see SimulateTraffic).
type TrafficReport struct {
	// AdmissionRate is the share of demands admitted.
	AdmissionRate float64
	// Uncoverable counts demands with no dominated path at all.
	Uncoverable int
	// MeanLatencyMs and MeanHops average over admitted paths.
	MeanLatencyMs float64
	MeanHops      float64
	// TopBrokerShare is the busiest broker's share of broker traversals.
	TopBrokerShare float64
	// LoadGini is the Gini coefficient of broker load (0 = even).
	LoadGini float64
}

// SimulateTraffic runs a gravity-model workload of `demands` bandwidth
// requests through the broker set's QoS engine and reports admission and
// load-concentration statistics.
func (b *BrokerSet) SimulateTraffic(demands int, seed int64) (*TrafficReport, error) {
	if demands < 1 {
		return nil, fmt.Errorf("brokerset: demands must be >= 1, got %d", demands)
	}
	cfg := sim.DefaultWorkloadConfig()
	cfg.Demands = demands
	cfg.Seed = seed
	workload, err := sim.GenerateWorkload(b.net.top, cfg)
	if err != nil {
		return nil, err
	}
	metrics := routing.DefaultMetrics(b.net.top, rand.New(rand.NewSource(seed)))
	res, err := sim.Run(b.net.top, metrics, b.members, workload, routing.Options{})
	if err != nil {
		return nil, err
	}
	return &TrafficReport{
		AdmissionRate:  res.AdmissionRate,
		Uncoverable:    res.Uncoverable,
		MeanLatencyMs:  res.MeanLatencyMs,
		MeanHops:       res.MeanHops,
		TopBrokerShare: res.TopBrokerShare,
		LoadGini:       res.GiniLoad,
	}, nil
}
