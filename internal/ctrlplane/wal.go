package ctrlplane

import (
	"cmp"
	"maps"
	"slices"

	"brokerset/internal/graph"
)

// The write-ahead log models each broker's durable storage: every
// state-changing protocol step is a record appended *before* it is applied,
// and applying it is the one function apply, so an agent's state is the fold
// of its log. A crash can lose the volatile state (holds, dedup memory,
// fencing) but never the log. Recovery folds the log from its latest
// checkpoint and resolves in-doubt sessions against the coordinator's
// decision record. The log lives on the Plane keyed by broker id, so it
// survives both Crash and coalition membership changes; a member's departure
// frees it.
//
// A log is bounded by its checkpoints. Once the records after the latest
// checkpoint pass a budget proportional to the agent's row count
// (tailBudget), the agent appends a fresh checkpoint — a full image of its
// state — and the log drops everything before it (Plane.compact). The
// checkpoint's O(rows) cost is paid once per budget's worth of records, so it
// amortizes to O(1) a record. A crash between the append and the drop loses
// nothing: replay starts from the latest checkpoint, which is the whole
// state, and whatever precedes it is never read.

// walOp enumerates WAL record kinds (walCheckpoint, walHold, walBatch,
// walMigrate, walCredit) and the two ways an attempt is finalized
// (walCommit, walAbort), which are not record kinds: they are the values of
// an agent's done fencing map, and reach the log inside batch entries only.
type walOp uint8

const (
	// walCheckpoint is a full image of the agent: its ledger rows with their
	// residuals, its outstanding holds, its fencing and dedup memory at or
	// above its watermark, and the watermark (image). The first one is
	// written when the agent is created — at plane construction and when
	// SetBrokers adds it — and the agent appends another whenever its tail
	// passes its budget. Replay starts from the last one.
	walCheckpoint walOp = iota + 1
	// walHold records a PREPARE hold placed on a link.
	walHold
	// walBatch records one decision record: the broker's entire view of a
	// round (commits, aborts, releases) in one append. Replay applies each
	// entry with per-session fencing, so recovery resolves every session in
	// the record independently. A record with MsgID 0 was written locally
	// (lease sweep, in-doubt resolution, departure), not delivered.
	walBatch
	// walCommit and walAbort fence a finalized attempt.
	walCommit
	walAbort
	// walMigrate records a membership change that moved rows to or from a
	// surviving agent, crashed or not: the links it lost, then the links it
	// gained with their residuals.
	walMigrate
	// walCredit records capacity another agent gave back to a link this one
	// owns: the hold or the release was the other agent's, and the link moved
	// here before it was settled (see columns.credit).
	walCredit
)

// sessKey identifies one setup attempt: Repath runs the same session again
// under a new epoch, so stale messages from a previous attempt can never
// touch the current one.
type sessKey struct {
	ID    int
	Epoch uint32
}

// fence is a finalized attempt in an agent's done memory: how it ended, and
// the id it is fenced by — the MsgID of the record that finalized it or, for
// a record written locally, the highest PREPARE the agent holds for it. The
// entry may be forgotten once the agent's watermark passes at: every PREPARE
// of the attempt is then a straggler (see DESIGN.md, "Bounded state").
type fence struct {
	op walOp
	at uint64
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

	// Ledger is a walMigrate's row payload; Image is a walCheckpoint's.
	Ledger *ledgerDelta
	Image  *image

	// Batch payload (Op == walBatch only).
	Batch []BatchEntry
}

// ledgerDelta is a change to the set of rows an agent owns: the links it
// lost, then the links it gained with their residuals.
type ledgerDelta struct {
	Lost   []int32
	Gained []ledgerRow
}

// image is a checkpoint's payload: everything replay starts from.
type image struct {
	Rows  []ledgerRow
	Holds map[sessKey][]hold
	// Done and Seen are the agent's fencing and dedup memory at or above W,
	// the agent's watermark.
	Done map[sessKey]fence
	Seen []uint64
	W    uint64
	// Commits counts, per attempt in Done, the delivered commit entries the
	// log held before the checkpoint (see commitCounts).
	Commits map[sessKey]int
}

// wal is one broker's append-only durable log; recs[0] is its latest
// checkpoint, and budget is the tail length that checkpoint allows.
type wal struct {
	recs   []walRecord
	budget int
}

// tailBudget is the number of records a log takes after a checkpoint of an
// agent with rows ledger rows before it is checkpointed again.
func tailBudget(rows int) int { return 16 + rows/8 }

func (w *wal) append(r walRecord) { w.recs = append(w.recs, r) }

// truncate drops every record before the latest checkpoint: the second step
// of checkpointing, after the checkpoint's append.
func (w *wal) truncate() {
	ck := w.recs[w.last()]
	w.recs = []walRecord{ck}
	w.budget = tailBudget(len(ck.Image.Rows))
}

// full reports whether the tail has passed its budget.
func (w *wal) full() bool { return len(w.recs)-1 > w.budget }

// last returns the index of the latest checkpoint.
func (w *wal) last() int {
	i := len(w.recs) - 1
	for w.recs[i].Op != walCheckpoint {
		i--
	}
	return i
}

// commitCounts tallies delivered commit entries per attempt — the invariant
// checker uses it to prove no session epoch committed twice on any broker.
// Records a recovery wrote locally (no MsgID) restate a decision rather
// than deliver one, and are not counted. The latest checkpoint carries the
// counts of the attempts in its window; a commit below the watermark never
// reaches the log (deliver fences it), so nothing a checkpoint dropped can
// be counted again.
func (w *wal) commitCounts() map[sessKey]int {
	last := w.last()
	out := maps.Clone(w.recs[last].Image.Commits)
	if out == nil {
		out = make(map[sessKey]int)
	}
	for _, r := range w.recs[last+1:] {
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

// replay folds the log into st and v: apply over its latest checkpoint, which
// resets st and puts the image's rows, and the records after it.
func (w *wal) replay(g *graph.Graph, st *state, v view) {
	for _, r := range w.recs[w.last():] {
		apply(g, st, v, r)
	}
}

// lapsed reports whether every lease of a non-empty hold set has lapsed at
// virtual clock tick now (an unleased hold never lapses).
func lapsed(hs []hold, now int) bool {
	for _, h := range hs {
		if h.expires == 0 || h.expires > now {
			return false
		}
	}
	return len(hs) > 0
}

// inDoubt returns the attempts left holding capacity with no
// decision record, in deterministic order — the sessions a recovering
// broker must resolve against the coordinator's commit-point log.
func inDoubt(holds map[sessKey][]hold) []sessKey {
	keys := make([]sessKey, 0, len(holds))
	for k := range holds {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b sessKey) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Epoch, b.Epoch)) })
	return keys
}
