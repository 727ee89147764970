package ctrlplane

// Crash fails broker b's process. All volatile state — the agent's ledger
// rows, which read as lost (Available 0) until Recover, its outstanding
// holds, dedup memory, and finalization fencing — is lost; only the
// write-ahead log survives. While crashed the agent neither receives nor
// acknowledges protocol messages, so in-flight setups through it abort and
// new setups fast-fail ("unresponsive").
// Crash/Recover round-trip exactly: Recover replays the WAL back to the
// pre-crash ledger and resolves what the crash left in doubt. Unknown
// brokers are only marked (nothing to wipe).
func (p *Plane) Crash(b int32) {
	if p.crashed[b] {
		return
	}
	p.flight.Recordf("ctrlplane", "crash", int64(p.d.Now()), "broker %d", b)
	p.crashed[b] = true
	if a := p.agents[b]; a != nil {
		a.holds, a.seen, a.done = nil, nil, nil
	}
}

// Recover restarts a crashed broker: the agent's volatile state is rebuilt
// by replaying its WAL (latest snapshot plus deltas — its ledger rows, which
// are written back into the plane's columns, outstanding holds, dedup
// memory, finalization fencing), and sessions the crash left in doubt (holds
// with no decision record) are resolved against the coordinator's durable
// commit point:
//
//	in-doubt state          decision record    resolution
//	prepared (hold held)    commit logged      commit entry
//	prepared (hold held)    abort logged       abort entry
//	prepared (hold held)    none               abort entry (presumed abort)
//
// The resolutions are logged as one batch record and applied through
// applyBatchEntries, like a record the coordinator delivered. The shared
// metrics mirror is coordinator-owned and untouched by replay, so recovery
// never double-counts a reservation. Recovering a broker that is not
// crashed is a no-op.
func (p *Plane) Recover(b int32) {
	if !p.crashed[b] {
		return
	}
	delete(p.crashed, b)
	a := p.agents[b]
	if a == nil {
		return // no longer a coalition member; ledger migration moved on
	}
	var rows map[int32]float64
	rows, a.holds, a.done, a.seen = p.walOf(b).replay(p.top.Graph)
	for l, avail := range rows {
		p.avail[l] = avail
	}
	doubt := inDoubt(a.holds)
	var entries []BatchEntry
	for _, key := range doubt {
		e := BatchEntry{Kind: EntryAbort, ID: key.ID, Epoch: key.Epoch}
		if p.decided[key] {
			e.Kind = EntryCommit
			p.stats.InDoubtCommitted++
		} else {
			p.stats.InDoubtAborted++
		}
		entries = append(entries, e)
	}
	p.applyLocal(a, entries)
	delete(p.d.breakers, b)
	p.stats.Recoveries++
	p.flight.Recordf("ctrlplane", "recover", int64(p.d.Now()), "broker %d: %d holds in doubt", b, len(doubt))
}

// applyLocal logs and applies a batch record that no message carried: the
// presumed aborts of a lease sweep, or a recovery's in-doubt resolutions.
// The record has no MsgID, which is how wal.commitCounts tells it from a
// decision the coordinator delivered.
func (p *Plane) applyLocal(a *agent, entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	p.walOf(a.id).append(walRecord{Op: walBatch, Batch: entries})
	p.applyBatch(a, entries)
}

// Crashed reports whether broker b is marked crashed.
func (p *Plane) Crashed(b int32) bool { return p.crashed[b] }

// ExpireLeases sweeps every live agent for prepared-but-undecided hold sets
// whose leases have all lapsed and presumed-aborts them locally — the
// self-cleaning path for setups abandoned mid-stitch by a crashed remote
// coordinator, with no teardown traffic. The presumed-abort decision is
// recorded at the coordinator and logged at the agent (one batch record of
// abort entries per broker) before any hold is credited back, so a late
// CommitPrepared for the same attempt refuses instead of committing over a
// swept hold. Hold sets whose decision is already COMMIT are never swept
// (the backlogged record will land); unleased holds (lease 0) never expire.
// Returns the number of hold sets swept.
func (p *Plane) ExpireLeases() int {
	n := 0
	for _, b := range p.Brokers() {
		if p.crashed[b] {
			continue
		}
		a := p.agents[b]
		var entries []BatchEntry
		for _, key := range inDoubt(a.holds) {
			if p.decided[key] {
				continue
			}
			lapsed := len(a.holds[key]) > 0
			for _, h := range a.holds[key] {
				if h.expires == 0 || h.expires > p.d.Now() {
					lapsed = false
					break
				}
			}
			if !lapsed {
				continue
			}
			p.decided[key] = false
			entries = append(entries, BatchEntry{Kind: EntryAbort, ID: key.ID, Epoch: key.Epoch})
			p.stats.LeaseExpiries++
			p.flight.Recordf("ctrlplane", "lease_expire", int64(p.d.Now()), "session %d.%d swept at broker %d", key.ID, key.Epoch, b)
		}
		p.applyLocal(a, entries)
		n += len(entries)
	}
	return n
}
