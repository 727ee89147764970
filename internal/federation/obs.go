package federation

import (
	"fmt"

	"brokerset/internal/obs"
)

// SetFlightRecorder attaches a flight recorder to the fabric and every
// region plane: federation-level events (peer sends, decisions, rollbacks,
// region crashes) and each region's intra-plane protocol events land in the
// same ring, in one global order. nil detaches.
func (f *Fabric) SetFlightRecorder(fr *obs.FlightRecorder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flight, f.d.Flight = fr, fr
	for _, reg := range f.regions {
		reg.Plane.SetFlightRecorder(fr)
	}
}

// SetTracer attaches a tracer to the fabric: each region's sub-coordinator
// adopts the trace ID riding incoming X-* messages, stitching its
// sub-transaction spans into the originating request's trace. nil detaches
// (sub-transactions run untraced).
func (f *Fabric) SetTracer(t *obs.Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = t
}

// RegisterMetrics exposes the fabric's counters under the federation_
// namespace, plus per-region epoch/commit/abort/query gauges name-encoded
// as federation_region<r>_*. The collector takes the fabric's read lock once
// per scrape.
func (f *Fabric) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		f.mu.RLock()
		st := f.statsLocked()
		type regionRow struct {
			epoch           uint64
			commits, aborts int
			leaseExpiries   int
			crashed         bool
		}
		rows := make([]regionRow, len(f.regions))
		for r, rg := range f.regions {
			ps := rg.Plane.Stats()
			rows[r] = regionRow{
				epoch: rg.Pub.Epoch(), commits: ps.Commits, aborts: ps.Aborts,
				leaseExpiries: ps.LeaseExpiries, crashed: rg.crashed,
			}
		}
		f.mu.RUnlock()
		for _, m := range []struct {
			name, help string
			kind       obs.Kind
			val        float64
		}{
			{"federation_setups_total", "cross-region setups attempted", obs.KindCounter, float64(st.Setups)},
			{"federation_commits_total", "stitched sessions committed end to end", obs.KindCounter, float64(st.Commits)},
			{"federation_aborts_total", "stitched setups aborted", obs.KindCounter, float64(st.Aborts)},
			{"federation_teardowns_total", "stitched sessions torn down", obs.KindCounter, float64(st.Teardowns)},
			{"federation_peer_messages_total", "messages on the inter-region bus", obs.KindCounter, float64(st.PeerMessages)},
			{"federation_peer_retries_total", "inter-region retransmissions", obs.KindCounter, float64(st.PeerRetries)},
			{"federation_commit_nacks_total", "late commits refused by lease-expired regions", obs.KindCounter, float64(st.CommitNacks)},
			{"federation_rollbacks_total", "committed sessions conserved-aborted", obs.KindCounter, float64(st.Rollbacks)},
			{"federation_breaker_trips_total", "peer-region circuit-breaker trips", obs.KindCounter, float64(st.BreakerTrips)},
			{"federation_breaker_fast_fails_total", "setups fast-failed through an open peer breaker", obs.KindCounter, float64(st.BreakerFastFails)},
			{"federation_gossip_sent_total", "gossip digest fragments sent", obs.KindCounter, float64(st.GossipSent)},
			{"federation_gossip_applied_total", "gossip digest fragments applied", obs.KindCounter, float64(st.GossipApplied)},
			{"federation_restitched_total", "damaged sessions healed onto a new stitched path", obs.KindCounter, float64(st.Restitched)},
			{"federation_heal_aborts_total", "damaged sessions the healer conserved-aborted", obs.KindCounter, float64(st.HealAborted)},
			{"federation_region_crashes_total", "region failure injections", obs.KindCounter, float64(st.RegionCrashes)},
			{"federation_region_recoveries_total", "region recoveries", obs.KindCounter, float64(st.RegionRecoveries)},
			{"federation_backlogged", "inter-region decision records awaiting delivery", obs.KindGauge, float64(st.Backlogged)},
		} {
			emit(obs.Sample{Name: m.name, Help: m.help, Kind: m.kind, Value: m.val})
		}
		for r, row := range rows {
			up := 1.0
			if row.crashed {
				up = 0
			}
			prefix := fmt.Sprintf("federation_region%d_", r)
			emit(obs.Sample{Name: prefix + "up", Help: "region sub-coordinator liveness", Kind: obs.KindGauge, Value: up})
			emit(obs.Sample{Name: prefix + "epoch", Help: "region snapshot epoch", Kind: obs.KindGauge, Value: float64(row.epoch)})
			emit(obs.Sample{Name: prefix + "commits_total", Help: "region-local 2PC commits", Kind: obs.KindCounter, Value: float64(row.commits)})
			emit(obs.Sample{Name: prefix + "aborts_total", Help: "region-local 2PC aborts", Kind: obs.KindCounter, Value: float64(row.aborts)})
			emit(obs.Sample{Name: prefix + "lease_expiries_total", Help: "region-local holds swept by lease expiry", Kind: obs.KindCounter, Value: float64(row.leaseExpiries)})
		}
	})
}
