package ctrlplane

import "sort"

// Committed-session leases: when RetryConfig.SessionTTL is set, every
// session that reaches its commit point is granted a heartbeat lease. The
// client renews it with RenewSession (brokerd's POST /sessions/{id}/renew);
// a session whose heartbeats stop is surfaced by ExpiredSessions and
// presumed-released by the sweeper through CommitBatch's BatchExpire path —
// which re-checks the lease under the plane's serialization, so a renewal
// racing the sweep can never double-release. A lease is a field of its
// session (Session.leaseExpires, a lease-clock instant); the plane only
// indexes the leased sessions by id, so tracking one costs a map entry.

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

// grantSessionLease starts (or restarts, on repath) s's heartbeat lease.
// No-op when session leasing is disabled.
func (p *Plane) grantSessionLease(s *Session) {
	if p.d.Retry.SessionTTL <= 0 {
		return
	}
	s.leaseExpires = p.leaseTime() + p.d.Retry.SessionTTL
	p.sessLeases[s.ID] = s
}

// dropSessionLease retires s's lease on release/teardown.
func (p *Plane) dropSessionLease(id int) { delete(p.sessLeases, id) }

// RenewSession extends session id's lease by a full SessionTTL from now —
// the heartbeat. Returns false (a renew miss) when the session holds no
// lease: never granted, already torn down, or already swept. A miss means
// the session is gone; the client must set up anew, never resurrect.
func (p *Plane) RenewSession(id int) bool {
	s := p.sessLeases[id]
	if s == nil {
		p.stats.LeaseRenewMisses++
		return false
	}
	s.leaseExpires = p.leaseTime() + p.d.Retry.SessionTTL
	p.stats.LeaseRenewals++
	return true
}

// SessionLeaseLapsed reports whether session id holds a lease that has
// lapsed. It is the expiry guard CommitBatch's BatchExpire path re-checks
// under the plane's serialization: false for unleased sessions (leasing
// disabled, or already dropped), so those are never presumed-released.
func (p *Plane) SessionLeaseLapsed(id int) bool {
	s := p.sessLeases[id]
	return s != nil && s.leaseExpires <= p.leaseTime()
}

// ExpiredSessions returns the committed sessions whose heartbeat leases
// have lapsed, ascending by id. The caller (brokerd's sweeper) feeds them
// to CommitBatch as BatchExpire ops; the lease itself is only dropped when
// that batch releases the session, so a renewal between this scan and the
// batch still wins.
func (p *Plane) ExpiredSessions() []*Session {
	now := p.leaseTime()
	var out []*Session
	for _, s := range p.sessLeases {
		if s.leaseExpires <= now {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
