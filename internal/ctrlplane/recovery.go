package ctrlplane

// Crash fails broker b's process. All volatile state — the agent's ledger
// rows, which read as lost (Available 0) until Recover, its outstanding
// holds, dedup memory, and finalization fencing — is lost; only the
// write-ahead log survives. While crashed the agent neither receives nor
// acknowledges protocol messages, so in-flight setups through it abort and
// new setups fast-fail ("unresponsive").
// Crash/Recover round-trip exactly: Recover folds the WAL back into the
// pre-crash state and resolves what the crash left in doubt. Unknown brokers
// are only marked (nothing to wipe).
func (p *Plane) Crash(b int32) {
	if p.crashed[b] {
		return
	}
	p.flight.Record("ctrlplane", "crash", int64(p.d.Now()), "broker %d", "", int64(b))
	p.crashed[b] = true
	if a := p.agents[b]; a != nil {
		a.state = state{}
	}
}

// Recover restarts a crashed broker: its WAL (latest checkpoint plus the
// records after it) is folded into the columns of the rows it owns and into
// its outstanding holds, dedup memory, finalization fencing and watermark
// (restore), and sessions the crash left in doubt (holds with no decision
// record) are resolved against the coordinator's durable commit point:
//
//	in-doubt state          decision record    resolution
//	prepared (hold held)    commit logged      commit entry
//	prepared (hold held)    abort logged       abort entry
//	prepared (hold held)    none               abort entry (presumed abort, recorded)
//
// The resolutions are recorded as one batch record, like a record the
// coordinator delivered; an abort credits its holds wherever their rows went
// while the broker was down. Records backlogged toward it stay backlogged
// and land after this, fenced or applied like any late delivery. The shared
// metrics mirror is coordinator-owned and untouched by the fold, so recovery
// never double-counts a reservation. Recovering a broker that is not crashed
// is a no-op.
func (p *Plane) Recover(b int32) {
	if !p.crashed[b] {
		return
	}
	delete(p.crashed, b)
	a := p.agents[b]
	if a == nil {
		return // departed while crashed: SetBrokers settled its log then
	}
	p.restore(a)
	doubt := inDoubt(a.holds)
	var entries []BatchEntry
	for _, key := range doubt {
		e := p.resolve(key)
		if e.Kind == EntryCommit {
			p.stats.InDoubtCommitted++
		} else {
			p.stats.InDoubtAborted++
		}
		entries = append(entries, e)
	}
	p.applyLocal(a, entries)
	p.compact(b)
	delete(p.d.breakers, b)
	p.stats.Recoveries++
	p.flight.Record("ctrlplane", "recover", int64(p.d.Now()), "broker %d: %d holds in doubt", "", int64(b), int64(len(doubt)))
}

// resolve returns the entry that settles attempt key at an agent holding on
// it with no decision record of its own: a commit when the coordinator
// decided commit, an abort otherwise. An abort the coordinator never decided
// is presumed, recorded in decided and unpinned before the entry is returned,
// so a later CommitPrepared for the attempt is refused instead of committing
// over capacity the abort credits back. The lease sweep, Recover and a
// departing member's settlement (depart) are the three places an abort is
// presumed.
func (p *Plane) resolve(key sessKey) BatchEntry {
	e := BatchEntry{Kind: EntryAbort, ID: key.ID, Epoch: key.Epoch}
	if p.decided[key] {
		e.Kind = EntryCommit
	} else {
		p.setDecided(key, false)
	}
	return e
}

// applyLocal records a batch record that no message carried: the presumed
// aborts of a lease sweep or of a departure, or a recovery's in-doubt
// resolutions. The record has no MsgID, which is how wal.commitCounts tells
// it from a decision the coordinator delivered.
func (p *Plane) applyLocal(a *agent, entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	p.record(a, walRecord{Op: walBatch, Batch: entries})
	p.compact(a.id)
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
			if !lapsed(a.holds[key], p.d.Now()) {
				continue
			}
			e := p.resolve(key)
			if e.Kind == EntryCommit {
				continue // the backlogged commit record will land
			}
			entries = append(entries, e)
			p.stats.LeaseExpiries++
			p.flight.Record("ctrlplane", "lease_expire", int64(p.d.Now()), "session %d.%d swept at broker %d", "", int64(key.ID), int64(key.Epoch), int64(b))
		}
		p.applyLocal(a, entries)
		n += len(entries)
	}
	return n
}
