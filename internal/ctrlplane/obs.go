package ctrlplane

import (
	"sync"

	"brokerset/internal/obs"
)

// SetFlightRecorder attaches a flight recorder; every protocol event
// (sends, deliveries, decisions, crashes, recoveries, breaker trips,
// backlog growth) is recorded into its ring. nil detaches (the default:
// recording is a nil-safe no-op).
func (p *Plane) SetFlightRecorder(fr *obs.FlightRecorder) { p.flight, p.d.Flight = fr, fr }

// RegisterMetrics exposes the plane's counters on reg under the
// ctrlplane_ namespace, plus the transport's delivery/fault counters
// under transport_. The Plane is not internally synchronized — the
// caller passes the lock that orders its control-plane mutations (brokerd
// passes its state mutex's RLocker) and the collector takes it once per
// scrape.
func (p *Plane) RegisterMetrics(reg *obs.Registry, lk sync.Locker) {
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		lk.Lock()
		s := p.Stats()
		ts := p.d.Transport.Stats()
		version := p.version
		records, checkpoints := 0, p.checkpoints
		for _, w := range p.wals {
			records += len(w.recs)
		}
		lk.Unlock()
		for _, m := range []struct {
			name, help string
			kind       obs.Kind
			val        float64
		}{
			{"ctrlplane_messages_total", "protocol messages sent", obs.KindCounter, float64(s.Messages)},
			{"ctrlplane_commits_total", "sessions committed by 2PC", obs.KindCounter, float64(s.Commits)},
			{"ctrlplane_aborts_total", "setups aborted", obs.KindCounter, float64(s.Aborts)},
			{"ctrlplane_teardowns_total", "sessions torn down", obs.KindCounter, float64(s.Teardowns)},
			{"ctrlplane_repaths_total", "sessions moved to a new path", obs.KindCounter, float64(s.Repaths)},
			{"ctrlplane_repath_aborts_total", "sessions aborted during repath", obs.KindCounter, float64(s.RepathAborts)},
			{"ctrlplane_retries_total", "retransmitted messages", obs.KindCounter, float64(s.Retries)},
			{"ctrlplane_timeouts_total", "per-broker RPCs that exhausted all attempts", obs.KindCounter, float64(s.Timeouts)},
			{"ctrlplane_dups_dropped_total", "messages deduplicated by agents", obs.KindCounter, float64(s.DupsDropped)},
			{"ctrlplane_breaker_trips_total", "circuit-breaker trips", obs.KindCounter, float64(s.BreakerTrips)},
			{"ctrlplane_breaker_fast_fails_total", "setups fast-failed through an open breaker", obs.KindCounter, float64(s.BreakerFastFails)},
			{"ctrlplane_recoveries_total", "WAL replays after a crash", obs.KindCounter, float64(s.Recoveries)},
			{"ctrlplane_in_doubt_committed_total", "in-doubt holds resolved to commit", obs.KindCounter, float64(s.InDoubtCommitted)},
			{"ctrlplane_in_doubt_aborted_total", "in-doubt holds resolved to abort", obs.KindCounter, float64(s.InDoubtAborted)},
			{"ctrlplane_backlogged", "decided-but-undelivered messages awaiting redelivery", obs.KindGauge, float64(s.Backlogged)},
			{"ctrlplane_batch_rounds_total", "group-commit 2PC rounds", obs.KindCounter, float64(s.BatchRounds)},
			{"ctrlplane_batch_ops_total", "lifecycle operations carried by group-commit rounds", obs.KindCounter, float64(s.BatchOps)},
			{"ctrlplane_lease_hold_expiries_total", "prepared hold sets presumed-aborted by lease expiry", obs.KindCounter, float64(s.LeaseExpiries)},
			{"ctrlplane_version", "committed capacity mutation count", obs.KindGauge, float64(version)},
			{"ctrlplane_wal_records", "records across the members' write-ahead logs, checkpoints included", obs.KindGauge, float64(records)},
			{"ctrlplane_wal_checkpoints_total", "write-ahead log checkpoints appended", obs.KindCounter, float64(checkpoints)},
			{"transport_sent_total", "messages pushed onto the transport", obs.KindCounter, float64(ts.Sent)},
			{"transport_delivered_total", "messages handed to receivers", obs.KindCounter, float64(ts.Delivered)},
			{"transport_dropped_total", "messages dropped by fault injection", obs.KindCounter, float64(ts.Dropped)},
			{"transport_duplicated_total", "messages duplicated by fault injection", obs.KindCounter, float64(ts.Duplicated)},
			{"transport_delayed_total", "messages held back by fault injection", obs.KindCounter, float64(ts.Delayed)},
			{"transport_reordered_total", "messages reordered by fault injection", obs.KindCounter, float64(ts.Reordered)},
			{"transport_partition_drops_total", "messages eaten by partitions", obs.KindCounter, float64(ts.PartitionDrops)},
		} {
			emit(obs.Sample{Name: m.name, Help: m.help, Kind: m.kind, Value: m.val})
		}
	})
}
