package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"brokerset/internal/daemon"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// reservedGbps sums the bandwidth a snapshot's view holds reserved over
// every arc, as the shortfall of what is available against boot (when
// nothing was) — the quantity that must return to baseline once abandoned
// leases lapse.
func reservedGbps(top *topology.Topology, boot, now *routing.View) float64 {
	var sum float64
	top.Graph.Edges(func(u, v int) bool {
		a, b := int32(u), int32(v)
		sum += boot.Available(a, b) - now.Available(a, b)
		sum += boot.Available(b, a) - now.Available(b, a)
		return true
	})
	return sum
}

// runLifecycle drives the in-process session-lifecycle scenario against a
// daemon booted with wall-clock leases: conc closed-loop workers cycle
// setup -> heartbeat hold -> (abandon | teardown) for dur — an abandonFrac
// of them silently stop renewing (a client that crashed, lost connectivity,
// or just left) — while the daemon's own sweeper presumed-releases whatever
// lapses. Then everything stops cold, and the end-of-run assert is the
// point of the scenario: with no teardown ever arriving for abandoned
// sessions, reserved capacity must still return to baseline within 2x the
// lease TTL, or the plane leaks.
func runLifecycle(top *topology.Topology, k, conc int, dur, ttl time.Duration, abandonFrac float64, seed int64, out io.Writer) error {
	d, err := daemon.New(top, daemon.Config{K: k, LeaseTTL: ttl})
	if err != nil {
		return err
	}
	boot := d.Snapshot().View()
	reserved := func() float64 { return reservedGbps(top, boot, d.Snapshot().View()) }
	const baseline = 0.0 // reserved is measured against boot
	fmt.Fprintf(out, "loadgen: lifecycle scenario, %d nodes, %d workers, ttl %v, abandon %.0f%% (baseline %.3f Gbps reserved)\n",
		top.NumNodes(), conc, ttl, 100*abandonFrac, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	swept := make(chan struct{})
	go func() { // the expiry sweeper, at the daemon's default ttl/4
		defer close(swept)
		d.Run(ctx)
	}()
	var setups, abandoned, torndown, setupErrs, renewals atomic.Uint64
	abandonedIDs := make([][]int, conc) // by worker

	deadline := time.Now().Add(dur)
	var workers sync.WaitGroup
	for w := 0; w < conc; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			gen, err := workload.NewPairGen(top, 1.1, seed+int64(w)*7919)
			if err != nil {
				return
			}
			rng := rand.New(rand.NewSource(seed ^ int64(w)<<17))
			for time.Now().Before(deadline) {
				src, dst := gen.Pair()
				octx, ocancel := context.WithTimeout(context.Background(), time.Second)
				sess, err := d.Setup(octx, int(src), int(dst), 0.01)
				ocancel()
				if err != nil {
					setupErrs.Add(1)
					time.Sleep(ttl / 8)
					continue
				}
				setups.Add(1)
				if rng.Float64() < abandonFrac {
					// Abandon: walk away mid-lease. No teardown will ever
					// arrive; only lease expiry can reclaim this capacity.
					abandoned.Add(1)
					abandonedIDs[w] = append(abandonedIDs[w], sess.ID)
					continue
				}
				// Hold across a few renewal periods, heartbeating at ttl/3
				// like brokerd clients, then tear down cleanly.
				for i, n := 0, 1+rng.Intn(3); i < n && time.Now().Before(deadline); i++ {
					time.Sleep(ttl / 3)
					if d.Renew(sess.ID) {
						renewals.Add(1)
					}
				}
				octx, ocancel = context.WithTimeout(context.Background(), time.Second)
				terr := d.Teardown(octx, sess.ID)
				ocancel()
				if terr == nil {
					torndown.Add(1)
				}
			}
		}(w)
	}
	workers.Wait()

	// Workers are gone; abandoned sessions are still leased. The sweeper
	// keeps running — capacity must drain back to baseline within 2x TTL.
	recovered, waited := false, time.Duration(0)
	const poll = 10 * time.Millisecond
	for ; waited <= 2*ttl; waited += poll {
		if math.Abs(reserved()-baseline) < 1e-6 {
			recovered = true
			break
		}
		time.Sleep(poll)
	}
	cancel()
	<-swept

	// An abandoned session the table no longer holds was expired: nothing
	// else (no teardown, no churn) takes one out.
	expiries := 0
	for _, ids := range abandonedIDs {
		for _, id := range ids {
			if _, held := d.Session(id); !held {
				expiries++
			}
		}
	}
	fmt.Fprintf(out, "lifecycle: %d setups (%d abandoned, %d torn down, %d refused), %d renewals, %d lease expiries\n",
		setups.Load(), abandoned.Load(), torndown.Load(), setupErrs.Load(),
		renewals.Load(), expiries)
	final := reserved()
	if !recovered {
		return fmt.Errorf("lifecycle: reserved capacity did not return to baseline within 2x TTL: %.3f Gbps still reserved after %v (baseline %.3f)",
			final, waited, baseline)
	}
	fmt.Fprintf(out, "lifecycle: reserved capacity back at baseline (%.3f Gbps) after %v (limit %v)\n",
		final, waited, 2*ttl)
	if err := d.CheckInvariants(); err != nil {
		return fmt.Errorf("lifecycle: invariants violated after run: %w", err)
	}
	return nil
}
