package daemon

import (
	"context"
	"slices"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
)

// Heartbeat leases on committed sessions (-lease-ttl) are the daemon's: the
// control plane keeps only virtual time. Daemon.leases holds one deadline per
// session id, read off Daemon.now, whose monotonic reading the comparisons
// use, so a step of the wall clock moves no deadline. The deadlines sit beside
// the session table under writeMu, which orders every grant, renewal, sweep,
// heal and table write. The batch leader grants one when it puts a setup's
// record in the table; a teardown, an expiry or a heal's abort drops it with
// the record; a heal's repath keeps the id and so keeps the deadline. Whenever
// writeMu is free the deadline table holds exactly the standing leased
// sessions.

// leaseCounts are the lease counters /metrics exposes. Guarded by writeMu.
type leaseCounts struct{ renewals, misses, expiries int }

// grantLease starts session id's lease: a full TTL from now. A no-op when
// leasing is off. Caller holds writeMu.
func (s *Daemon) grantLease(id int) {
	if s.leases != nil {
		s.leases[id] = s.now().Add(s.cfg.LeaseTTL)
	}
}

// sweepLeases runs one expiry pass and returns how many sessions it
// presumed-released.
func (s *Daemon) sweepLeases(ctx context.Context) int {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.expireLapsed(ctx)
}

// expireLapsed presumed-releases, in one BatchTeardown round, every session
// whose deadline has passed, takes it out of both tables, and returns how
// many. Caller holds writeMu, so no renewal lands between reading a deadline
// and the release.
func (s *Daemon) expireLapsed(ctx context.Context) int {
	now := s.now()
	var ops []ctrlplane.BatchOp
	for id, deadline := range s.leases {
		if !deadline.After(now) {
			sess, _ := s.sessions.Get(id)
			ops = append(ops, ctrlplane.BatchOp{Kind: ctrlplane.BatchTeardown, Session: sess})
		}
	}
	if len(ops) == 0 {
		return 0
	}
	slices.SortFunc(ops, func(a, b ctrlplane.BatchOp) int { return a.Session.ID - b.Session.ID })
	before := s.plane.Version()
	n := 0
	for _, r := range s.plane.CommitBatch(ctx, ops) {
		if r.Err == nil {
			s.sessions.Delete(r.Session.ID)
			delete(s.leases, r.Session.ID)
			s.flight.Record("brokerd", "session_expire", 0, "session %d.%d presumed-released", "", int64(r.Session.ID), int64(r.Session.Epoch))
			n++
		}
	}
	s.leaseCounts.expiries += n
	s.publishIfMoved(ctx, before)
	return n
}

// registerLeaseMetrics exposes the lease table and its counters.
func (s *Daemon) registerLeaseMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		s.writeMu.Lock()
		active, c := len(s.leases), s.leaseCounts
		s.writeMu.Unlock()
		emit(obs.Sample{Name: "ctrlplane_lease_active", Help: "committed sessions holding a heartbeat lease", Kind: obs.KindGauge, Value: float64(active)})
		emit(obs.Sample{Name: "ctrlplane_lease_renewals_total", Help: "session heartbeat renewals", Kind: obs.KindCounter, Value: float64(c.renewals)})
		emit(obs.Sample{Name: "ctrlplane_lease_renew_misses_total", Help: "heartbeats for already-swept sessions", Kind: obs.KindCounter, Value: float64(c.misses)})
		emit(obs.Sample{Name: "ctrlplane_lease_session_expiries_total", Help: "committed sessions presumed-released by lease expiry", Kind: obs.KindCounter, Value: float64(c.expiries)})
	})
}
