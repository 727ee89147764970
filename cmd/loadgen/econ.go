package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"brokerset/internal/broker"
	"brokerset/internal/epoch"
	"brokerset/internal/market"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// econStack is loadgen's in-process economics run: a real query plane with
// the market plane's admission gate installed, and a scenario driver that
// ticks the plane through the spec's samples (so the price trajectory is a
// pure function of the spec — the workers' live bids race only the
// admission counters and the ledger amounts).
type econStack struct {
	spec  market.ScenarioSpec
	plane *market.Plane
	qp    *queryplane.QueryPlane

	// brokerSet guards the carrier-credit membership; the defection
	// scenario removes the top-Shapley broker mid-run.
	mu        sync.RWMutex
	brokerSet map[int32]bool
	defected  int32

	// bidMu guards the shared bid RNG (workers draw concurrently).
	bidMu  sync.Mutex
	bidRng *rand.Rand

	// prices is the driver-recorded trajectory (driver goroutine only
	// until the run ends).
	prices []float64
}

// newEconStack builds the plane + market wiring for one scenario.
func newEconStack(top *topology.Topology, k int, scenario string, seed int64) (*econStack, error) {
	spec, err := market.DefaultScenario(scenario)
	if err != nil {
		return nil, err
	}
	brokers, err := broker.MaxSG(top.Graph, k)
	if err != nil {
		return nil, err
	}
	plane, err := market.NewPlane(market.Config{DemandRef: spec.BaseDemand}, seed, spec.WindowTicks)
	if err != nil {
		return nil, err
	}
	s := &econStack{
		spec:      spec,
		plane:     plane,
		brokerSet: make(map[int32]bool, len(brokers)),
		bidRng:    rand.New(rand.NewSource(seed)),
		defected:  -1,
	}
	for _, b := range brokers {
		s.brokerSet[b] = true
	}
	// One snapshot for the whole run: the scenario moves prices, never
	// topology or capacity, so the epoch stays where the publisher starts it.
	pub := epoch.NewPublisher(epoch.NewSnapshot(epoch.SnapshotData{
		Top: top, Live: top.Graph, Brokers: brokers, View: routing.DefaultMetrics(top, nil).View(),
	}))
	s.qp = queryplane.Over(pub, plane.Adm)
	return s, nil
}

// bid draws one request bid from the scenario's distribution around the
// current price.
func (s *econStack) bid() float64 {
	s.bidMu.Lock()
	defer s.bidMu.Unlock()
	return s.spec.Bid(s.plane.Ctrl.Price(), s.bidRng)
}

// econTarget adapts the stack into a workload.Target: queries carry
// scenario bids through the priced admission gate, and successful paths
// credit their coalition carriers in the settlement accumulator.
type econTarget struct {
	stack *econStack
	opts  routing.Options
}

func (t *econTarget) Query(src, dst int32) (workload.Outcome, error) {
	p, cached, err := t.stack.qp.QueryBid(context.Background(), int(src), int(dst), t.opts, t.stack.bid())
	if err != nil {
		var pe *queryplane.PriceError
		switch {
		case errors.As(err, &pe):
			return workload.Outcome{PriceRejected: true, Quote: pe.Quote}, nil
		case errors.Is(err, queryplane.ErrShed):
			return workload.Outcome{Shed: true, ShedRegion: -1}, nil
		case errors.Is(err, routing.ErrNoPath):
			return workload.Outcome{}, nil
		}
		return workload.Outcome{}, err
	}
	t.stack.creditNodes(p.Nodes)
	return workload.Outcome{Cached: cached, Found: true}, nil
}

func (s *econStack) creditNodes(nodes []int32) {
	s.mu.RLock()
	var carriers []int32
	for _, n := range nodes {
		if s.brokerSet[n] {
			carriers = append(carriers, n)
		}
	}
	s.mu.RUnlock()
	s.plane.Set.Record(carriers, 1)
}

// drive is the scenario clock: it walks the spec's Ticks across the run
// duration and runs market.Simulate's steps on each — the defection event,
// then a plane tick on the scenario's sample. Stops early when stop closes.
func (s *econStack) drive(stop <-chan struct{}, dur time.Duration) {
	tickDur := dur / time.Duration(s.spec.Ticks)
	if tickDur <= 0 {
		tickDur = time.Millisecond
	}
	tick := time.NewTicker(tickDur)
	defer tick.Stop()
	for t := 0; t < s.spec.Ticks; t++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if top := s.spec.DefectorAt(t, s.plane.Set); top >= 0 {
			s.mu.Lock()
			delete(s.brokerSet, top)
			s.defected = top
			s.mu.Unlock()
		}
		q, err := s.plane.Tick(s.spec.SampleAt(t))
		if err != nil {
			return
		}
		s.prices = append(s.prices, q.Price)
	}
}

// finish closes the final settlement window, attaches the econ summary to
// the report, and (with assert) checks the run's economic invariants:
// exact ledger conservation, and for shocked scenarios a price that rose
// during the shock and relaxed afterwards.
func (s *econStack) finish(rep *workload.Report, out io.Writer, assert bool) error {
	s.plane.Close()
	st := s.plane.Adm.Stats()
	rep.Econ = &workload.EconSummary{
		Scenario:      s.spec.Name,
		Admitted:      st.Admitted,
		AdmittedFree:  st.AdmittedFree,
		PriceRejected: st.PriceRejected,
		Revenue:       ledgerRevenue(s.plane.Set),
		LastPrice:     s.plane.Ctrl.Price(),
		Settlements:   s.plane.Set.Windows(),
	}
	if s.defected >= 0 {
		fmt.Fprintf(out, "econ:     broker %d defected at tick %d\n", s.defected, s.spec.DefectTick)
	}
	if !assert {
		return nil
	}
	if err := s.plane.Set.CheckConservation(1e-9); err != nil {
		return fmt.Errorf("econ assert: %w", err)
	}
	if s.spec.ShockFactor > 1 && len(s.prices) >= s.spec.ShockEnd {
		mean := func(lo, hi int) float64 {
			var sum float64
			for i := lo; i < hi; i++ {
				sum += s.prices[i]
			}
			return sum / float64(hi-lo)
		}
		pre := mean(maxInt(0, s.spec.ShockStart-10), s.spec.ShockStart)
		during := mean(s.spec.ShockEnd-10, s.spec.ShockEnd)
		if during <= pre {
			return fmt.Errorf("econ assert: price did not rise under the shock (pre %g, during %g)", pre, during)
		}
		if n := len(s.prices); n == s.spec.Ticks {
			post := mean(n-10, n)
			if post >= during {
				return fmt.Errorf("econ assert: price did not relax after the shock (during %g, post %g)", during, post)
			}
		}
	}
	fmt.Fprintln(out, "econ:     asserts passed (ledger conserved, price trajectory sane)")
	return nil
}

// ledgerRevenue sums the settled revenue across all windows.
func ledgerRevenue(set *market.Settlement) float64 {
	var total float64
	for _, rec := range set.Records() {
		total += rec.Revenue
	}
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
