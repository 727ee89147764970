// Federation mode: loadgen builds an N-region broker federation in
// process, points the closed-loop workers at cross-region stitched path
// queries, and concurrently drives the fabric — its beat (clock ticks,
// gossip, heals), a trickle of cross-region session setups/teardowns, and
// (optionally) a mid-run region crash — all over the fault-injected
// inter-region bus.
// At the end of the run the fabric must reconcile to a conserved state;
// an invariant violation dumps the flight recorder and fails the run.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/federation"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// fedStack is the in-process federation and what observes it. The fabric
// orders its own callers: the workers' stitch queries share its read side,
// the driver goroutine (beats, sessions, crashes) and the final
// reconcile take turns on its write side.
type fedStack struct {
	fabric *federation.Fabric
	top    *topology.Topology
	flight *obs.FlightRecorder
	tracer *obs.Tracer

	// Client-side SLO engine (-slo-p99): the workers classify stitched
	// queries against the latency budget, the driver ticks the burn-rate
	// evaluation, and finish reports alerts plus the bad-event traces.
	slo    *obs.SLOEngine
	sloQ   *obs.SLOObjective     // nil without -slo-p99: recording on it is a no-op
	alerts []obs.AlertTransition // the driver's, then finish's once it has stopped

	crashTarget int // transit region crashed mid-run by -fed-crash
}

func newFedStack(scale float64, seed int64, regions, budget int, crossing, loss, dup float64) (*fedStack, error) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	cfg := federation.Config{
		Regions:        regions,
		BrokerBudget:   budget,
		CrossingCostMs: crossing,
		Seed:           seed,
		Retry:          ctrlplane.RetryConfig{MaxAttempts: 4, LeaseTTL: 60, BreakerThreshold: 1000},
	}
	if loss > 0 || dup > 0 {
		rates := ctrlplane.FaultRates{Drop: loss, Duplicate: dup}
		cfg.PeerFaults = &ctrlplane.FaultConfig{Seed: seed, ToBroker: rates, ToCoord: rates}
	}
	fabric, err := federation.New(top, cfg)
	if err != nil {
		return nil, err
	}
	fr := obs.NewFlightRecorder(1 << 14)
	fabric.SetFlightRecorder(fr)
	// Every query roots a trace and the fabric's sub-coordinators adopt
	// the ID from the peer messages, so one stitched trace covers the
	// query plus each region's sub-transaction spans.
	tracer := obs.NewTracer(1 << 14)
	fabric.SetTracer(tracer)
	// Crash a transit region, never an edge one: endpoints stay routable,
	// and the healer the driver's beats run re-stitches or aborts the
	// sessions that crossed it, rather than facing total blackout.
	return &fedStack{fabric: fabric, top: top, flight: fr, tracer: tracer, crashTarget: regions / 2}, nil
}

// enableSLO arms a client-side burn-rate alert over stitched-query
// latency: p99 is the per-query budget, window the burn-rate base window
// (scaled to the run length, not the SRE-workbook hour).
func (s *fedStack) enableSLO(p99, window time.Duration) {
	s.slo = obs.NewSLOEngine(obs.SLOConfig{BaseWindow: window})
	s.sloQ = s.slo.Add(obs.Objective{
		Name: "fed_query_latency", Help: "stitched queries under the latency budget",
		Target: 0.99, Latency: p99,
	})
}

// fedTarget answers workload queries with cross-region stitched paths,
// honoring a shedding region's Retry-After exactly like HTTPTarget honors a
// 429 (workload.RetryShed), with the refusing region recorded.
type fedTarget struct {
	stack      *fedStack
	opts       routing.Options
	maxRetries int
	maxWait    time.Duration
}

func (t *fedTarget) Query(src, dst int32) (workload.Outcome, error) {
	// One trace covers the whole query including its shed-retry attempts;
	// the fabric's sub-coordinators stitch their spans into it.
	ctx := context.Background()
	var trace uint64
	if t.stack.tracer != nil {
		var span *obs.Span
		ctx, span = t.stack.tracer.Root(ctx, "loadgen.fedquery", 0)
		trace = span.TraceID
		defer span.End()
	}
	t0 := time.Now()
	out, err := workload.RetryShed(t.maxRetries, t.maxWait, func() (workload.Outcome, time.Duration, error) {
		_, err := t.stack.fabric.StitchPath(ctx, src, dst, t.opts)
		var shed *federation.ShedError
		switch {
		case err == nil:
			return workload.Outcome{Found: true}, 0, nil
		case errors.As(err, &shed):
			return workload.Outcome{Shed: true, ShedRegion: shed.Region}, shed.RetryAfter, nil
		case errors.Is(err, federation.ErrNoRoute):
			return workload.Outcome{}, 0, nil
		}
		return workload.Outcome{}, 0, err
	})
	out.TraceID = trace
	switch {
	case out.Found:
		t.stack.sloQ.Observe(time.Since(t0), trace)
	case out.Shed:
		t.stack.sloQ.Record(false, trace)
	}
	return out, err
}

// drive advances the fabric until stop closes: every interval it beats
// the fabric (lease clocks, gossip, the healer — Fabric.Beat) and attempts
// one cross-region session setup (tearing down the oldest once a few are
// live) so the 2PC machinery runs under the same faults the queries see.
// With crash set, the target transit region is crashed a third of the way
// through the run and recovered at two thirds.
func (s *fedStack) drive(stop <-chan struct{}, dur time.Duration, interval time.Duration, crash bool, seed int64) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	start := time.Now()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := int32(s.top.NumNodes())
	var live []*federation.Session
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		elapsed := time.Since(start)
		s.fabric.Beat(context.Background())
		if crash {
			switch {
			case elapsed > dur/3 && elapsed < 2*dur/3 && !s.fabric.RegionCrashed(s.crashTarget):
				s.fabric.CrashRegion(s.crashTarget)
			case elapsed >= 2*dur/3 && s.fabric.RegionCrashed(s.crashTarget):
				s.fabric.RecoverRegion(s.crashTarget)
			}
		}
		if s.slo != nil {
			s.alerts = append(s.alerts, s.slo.Tick(time.Now())...)
		}
		src, dst := rng.Int31n(n), rng.Int31n(n)
		if sess, err := s.fabric.Setup(context.Background(), src, dst, 0.1, routing.Options{}); err == nil {
			live = append(live, sess)
		}
		if len(live) > 4 {
			// The record is the one Setup handed out: Teardown goes by its ID,
			// so a session healed since is torn down at its current epoch, and
			// one rolled back or heal-aborted answers ErrNoSession.
			_ = s.fabric.Teardown(context.Background(), live[0])
			live = live[1:]
		}
	}
}

// finish recovers any crashed region, reconciles the fabric to
// quiescence, and checks conservation invariants in every region's WAL.
// On violation the flight recorder is dumped to $FLIGHT_DUMP (or a temp
// file) so CI can attach it, and the error fails the run.
func (s *fedStack) finish(out io.Writer) error {
	for r := 0; r < s.fabric.NumRegions(); r++ {
		if s.fabric.RegionCrashed(r) {
			s.fabric.RecoverRegion(r)
		}
	}
	ctx := context.Background()
	if err := s.fabric.Reconcile(ctx); err != nil {
		s.dumpFlight(out, err)
		return fmt.Errorf("federation reconcile: %w", err)
	}
	if err := s.fabric.CheckInvariants(); err != nil {
		s.dumpFlight(out, err)
		return fmt.Errorf("federation invariant violation: %w", err)
	}
	st := s.fabric.Stats()
	fmt.Fprintf(out, "fed:      %d setups (%d commits, %d aborts), %d peer msgs, %d retries, %d rollbacks, %d restitched, %d crashes\n",
		st.Setups, st.Commits, st.Aborts, st.PeerMessages, st.PeerRetries, st.Rollbacks, st.Restitched, st.RegionCrashes)
	if s.slo != nil {
		// One last evaluation: a run shorter than -fed-every ends before the
		// driver's first tick, and its events would otherwise go unjudged.
		s.alerts = append(s.alerts, s.slo.Tick(time.Now())...)
		for _, tr := range s.alerts {
			state := "resolved"
			if tr.Firing {
				state = "firing"
			}
			fmt.Fprintf(out, "slo:      alert %s/%s %s (burn long %.1f short %.1f)\n",
				tr.Objective, tr.Severity, state, tr.BurnLong, tr.BurnShort)
		}
		for _, o := range s.slo.Status().Objectives {
			fmt.Fprintf(out, "slo:      %s good=%d bad=%d burn fast=%.1f slow=%.1f budget-left=%.2f",
				o.Name, o.Good, o.Bad, o.BurnFastLong, o.BurnSlowLong, o.BudgetRemaining)
			if len(o.BadTraceIDs) > 0 {
				fmt.Fprintf(out, " bad-traces=%v", o.BadTraceIDs)
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}

func (s *fedStack) dumpFlight(out io.Writer, violation error) {
	path := os.Getenv("FLIGHT_DUMP")
	if path == "" {
		path = "fed-flight.jsonl"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(out, "fed: flight dump failed: %v\n", err)
		return
	}
	defer f.Close()
	if err := s.flight.Dump(f, map[string]any{"violation": violation.Error()}); err != nil {
		fmt.Fprintf(out, "fed: flight dump failed: %v\n", err)
		return
	}
	fmt.Fprintf(out, "fed: flight recorder dumped to %s (%d events)\n", path, s.flight.Len())
}
