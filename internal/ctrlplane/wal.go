package ctrlplane

import "sort"

// The write-ahead log models each broker's durable storage: every
// state-changing protocol step is appended *before* the agent's in-memory
// ledger mutates, so a crash can lose the volatile state (ledger cache,
// holds, dedup memory) but never the log. Recovery replays the log from the
// latest snapshot and resolves in-doubt sessions against the coordinator's
// decision record. The log lives on the Plane keyed by broker id, so it
// survives both Crash and coalition membership changes.

// walOp enumerates WAL record kinds (walSnapshot, walHold, walBatch) and the
// two ways an attempt is finalized (walCommit, walAbort), which are not
// record kinds: they are the values of an agent's done fencing map, and
// reach the log inside batch entries and snapshot images only.
type walOp uint8

const (
	// walSnapshot is a full ledger image, written when the agent is
	// (re)created — at plane construction and on every SetBrokers ledger
	// migration. Replay starts from the last snapshot.
	walSnapshot walOp = iota + 1
	// walHold records a PREPARE hold placed on a hop.
	walHold
	// walBatch records one decision record: the broker's entire view of a
	// round (commits, aborts, releases) in one append. Replay applies each
	// entry with per-session fencing, so recovery resolves every session in
	// the record independently. A record with MsgID 0 was written locally
	// (lease sweep, in-doubt resolution), not delivered.
	walBatch
	// walCommit and walAbort fence a finalized attempt.
	walCommit
	walAbort
)

// sessKey identifies one setup attempt: Repath runs the same session again
// under a new epoch, so stale messages from a previous attempt can never
// touch the current one.
type sessKey struct {
	ID    int
	Epoch uint32
}

// walRecord is one durable log entry. MsgID carries the protocol message
// that caused the entry, so replay can rebuild the agent's dedup memory.
type walRecord struct {
	Op    walOp
	MsgID uint64
	// Session, Hop, BW and Expires (the hold's lease deadline in virtual
	// clock ticks, 0 = unleased) describe a hold (Op == walHold only).
	Session sessKey
	Hop     [2]int32
	BW      float64
	Expires int

	// Snapshot payload (Op == walSnapshot only).
	SnapAvail map[[2]int32]float64
	SnapDone  map[sessKey]walOp

	// Batch payload (Op == walBatch only).
	Batch []BatchEntry
}

// wal is one broker's append-only durable log.
type wal struct {
	recs []walRecord
}

func (w *wal) append(r walRecord) { w.recs = append(w.recs, r) }

// snapshot appends a full ledger image. Maps are deep-copied: the live
// agent keeps mutating its own.
func (w *wal) snapshot(avail map[[2]int32]float64, done map[sessKey]walOp) {
	rec := walRecord{Op: walSnapshot, SnapAvail: make(map[[2]int32]float64, len(avail))}
	for k, v := range avail {
		rec.SnapAvail[k] = v
	}
	if len(done) > 0 {
		rec.SnapDone = make(map[sessKey]walOp, len(done))
		for k, v := range done {
			rec.SnapDone[k] = v
		}
	}
	w.recs = append(w.recs, rec)
}

// commitCounts tallies delivered commit entries per attempt — the invariant
// checker uses it to prove no session epoch committed twice on any broker.
// Records a recovery wrote locally (no MsgID) restate a decision rather
// than deliver one, and are not counted.
func (w *wal) commitCounts() map[sessKey]int {
	out := make(map[sessKey]int)
	for _, r := range w.recs {
		if r.Op != walBatch || r.MsgID == 0 {
			continue
		}
		for _, e := range r.Batch {
			if e.Kind == EntryCommit {
				out[sessKey{e.ID, e.Epoch}]++
			}
		}
	}
	return out
}

// replay rebuilds an agent's volatile state from the log: ledger
// availability, outstanding holds, finalized-session fencing, and dedup
// memory. It touches nothing outside the returned state — in particular it
// never re-mirrors reservations into the shared metrics, which are
// coordinator-owned.
func (w *wal) replay() (avail map[[2]int32]float64, holds map[sessKey][]hold, done map[sessKey]walOp, seen map[uint64]struct{}) {
	avail = make(map[[2]int32]float64)
	holds = make(map[sessKey][]hold)
	done = make(map[sessKey]walOp)
	seen = make(map[uint64]struct{})
	start := 0
	for i, r := range w.recs {
		if r.Op == walSnapshot {
			start = i
		}
	}
	for _, r := range w.recs[start:] {
		if r.MsgID != 0 {
			seen[r.MsgID] = struct{}{}
		}
		switch r.Op {
		case walSnapshot:
			avail = make(map[[2]int32]float64, len(r.SnapAvail))
			for k, v := range r.SnapAvail {
				avail[k] = v
			}
			holds = make(map[sessKey][]hold)
			done = make(map[sessKey]walOp, len(r.SnapDone))
			for k, v := range r.SnapDone {
				done[k] = v
			}
		case walHold:
			avail[r.Hop] -= r.BW
			holds[r.Session] = append(holds[r.Session], hold{hop: r.Hop, bw: r.BW, expires: r.Expires})
		case walBatch:
			applyBatchEntries(avail, holds, done, r.Batch)
		}
	}
	return avail, holds, done, seen
}

// inDoubt returns the attempts left holding capacity with no
// decision record, in deterministic order — the sessions a recovering
// broker must resolve against the coordinator's commit-point log.
func inDoubt(holds map[sessKey][]hold) []sessKey {
	keys := make([]sessKey, 0, len(holds))
	for k := range holds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ID != keys[j].ID {
			return keys[i].ID < keys[j].ID
		}
		return keys[i].Epoch < keys[j].Epoch
	})
	return keys
}
