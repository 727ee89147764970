package ctrlplane

// Committed-session leases: when RetryConfig.SessionTTL is set, every
// session that reaches its commit point is granted a heartbeat lease. The
// client renews it with RenewSession (brokerd's POST /sessions/{id}/renew);
// whoever keeps the session records — brokerd's session table — asks
// SessionLeaseLapsed of each and presumed-releases the lapsed ones through
// CommitBatch's BatchExpire path, which re-checks the lease under the
// plane's serialization, so a renewal racing the sweep can never
// double-release. A lease is a field of its session record
// (Session.leaseExpires, a lease-clock instant) and the plane keeps no index
// of them: it counts grants and drops for ctrlplane_lease_active, nothing
// more.

// SetLeaseClock overrides the session-lease clock. The default is the
// plane's virtual clock, which advances per operation — right for
// deterministic tests, wrong for a live server whose idle sessions must
// still age: brokerd installs a wall clock (time.Now().UnixNano()) and a
// nanosecond SessionTTL. nil restores the virtual clock.
func (p *Plane) SetLeaseClock(now func() int64) { p.leaseNow = now }

// leaseTime returns the current lease-clock reading.
func (p *Plane) leaseTime() int64 {
	if p.leaseNow != nil {
		return p.leaseNow()
	}
	return int64(p.d.Now())
}

// leased reports whether s holds a heartbeat lease: granted at its commit
// point, dropped at its release.
func leased(s *Session) bool { return s != nil && s.State == StateCommitted && s.leaseExpires != 0 }

// grantSessionLease starts s's heartbeat lease at its commit point. No-op
// when session leasing is disabled.
func (p *Plane) grantSessionLease(s *Session) {
	if p.d.Retry.SessionTTL <= 0 {
		return
	}
	s.leaseExpires = p.leaseTime() + p.d.Retry.SessionTTL
	p.stats.SessionLeases++
}

// dropSessionLease retires s's lease on release.
func (p *Plane) dropSessionLease(s *Session) {
	if s.leaseExpires != 0 {
		s.leaseExpires = 0
		p.stats.SessionLeases--
	}
}

// RenewSession extends s's lease by a full SessionTTL from now — the
// heartbeat. Returns false (a renew miss) when s holds no lease: nil, never
// granted, already torn down, or already swept. A miss means the session is
// gone; the client must set up anew, never resurrect.
func (p *Plane) RenewSession(s *Session) bool {
	if !leased(s) {
		p.stats.LeaseRenewMisses++
		return false
	}
	s.leaseExpires = p.leaseTime() + p.d.Retry.SessionTTL
	p.stats.LeaseRenewals++
	return true
}

// SessionLeaseLapsed reports whether s holds a lease that has lapsed: the
// sweeper's question, and the expiry guard CommitBatch's BatchExpire path
// re-checks under the plane's serialization. False for unleased sessions
// (leasing disabled, or already released), so those are never
// presumed-released.
func (p *Plane) SessionLeaseLapsed(s *Session) bool {
	return leased(s) && s.leaseExpires <= p.leaseTime()
}
