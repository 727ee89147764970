package ctrlplane

import (
	"sort"

	"brokerset/internal/graph"
)

// The write-ahead log models each broker's durable storage: every
// state-changing protocol step is appended *before* the ledger mutates, so a
// crash can lose the volatile state (the agent's rows, holds, dedup memory)
// but never the log. Recovery replays the log from the latest snapshot and
// resolves in-doubt sessions against the coordinator's decision record. The
// log lives on the Plane keyed by broker id, so it survives both Crash and
// coalition membership changes.

// walOp enumerates WAL record kinds (walSnapshot, walHold, walBatch,
// walMigrate, walCredit) and the two ways an attempt is finalized
// (walCommit, walAbort), which are not record kinds: they are the values of
// an agent's done fencing map, and reach the log inside batch entries only.
type walOp uint8

const (
	// walSnapshot is a full image of the agent's ledger rows, written when
	// the agent is created — at plane construction and when SetBrokers adds
	// it — and when SetBrokers re-seeds a crashed member. Replay starts from
	// the last snapshot.
	walSnapshot walOp = iota + 1
	// walHold records a PREPARE hold placed on a link.
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
	// walMigrate records a membership change that moved rows to or from a
	// surviving agent: the links it lost, then the links it gained with
	// their residuals.
	walMigrate
	// walCredit records capacity another agent gave back to a link this one
	// owns: the hold or the release was the other agent's, and the link moved
	// here before it was settled (see Plane.credit).
	walCredit
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
	// Session, Link, BW and Expires (the hold's lease deadline in virtual
	// clock ticks, 0 = unleased) describe a hold (walHold); Link and BW a
	// credit (walCredit).
	Session sessKey
	Link    int32
	BW      float64
	Expires int

	// Ledger is the row payload of a walSnapshot (every row the agent owns)
	// or a walMigrate.
	Ledger *ledgerDelta

	// Batch payload (Op == walBatch only).
	Batch []BatchEntry
}

// ledgerDelta is a change to the set of rows an agent owns: the links it
// lost, then the links it gained with their residuals. A snapshot is the
// delta from no rows.
type ledgerDelta struct {
	Lost   []int32
	Gained []ledgerRow
}

// wal is one broker's append-only durable log.
type wal struct {
	recs []walRecord
}

func (w *wal) append(r walRecord) { w.recs = append(w.recs, r) }

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

// replay rebuilds an agent's volatile state from the log: its ledger rows
// (link -> residual, links of g), outstanding holds, finalized-session
// fencing, and dedup memory. It touches nothing outside the returned state —
// in particular it never re-mirrors reservations into the shared metrics,
// which are coordinator-owned, and a credit to a link the agent no longer
// owns (its row moved on) is not the agent's to replay.
func (w *wal) replay(g *graph.Graph) (rows map[int32]float64, holds map[sessKey][]hold, done map[sessKey]walOp, seen map[uint64]struct{}) {
	rows = make(map[int32]float64)
	holds = make(map[sessKey][]hold)
	done = make(map[sessKey]walOp)
	seen = make(map[uint64]struct{})
	credit := func(l int32, bw float64) {
		if _, owned := rows[l]; owned {
			rows[l] += bw
		}
	}
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
		case walSnapshot, walMigrate:
			for _, l := range r.Ledger.Lost {
				delete(rows, l)
			}
			for _, row := range r.Ledger.Gained {
				rows[row.Link] = row.Avail
			}
		case walHold:
			credit(r.Link, -r.BW)
			holds[r.Session] = append(holds[r.Session], hold{link: r.Link, bw: r.BW, expires: r.Expires})
		case walCredit:
			credit(r.Link, r.BW)
		case walBatch:
			applyBatchEntries(g, holds, done, r.Batch, credit)
		}
	}
	return rows, holds, done, seen
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
