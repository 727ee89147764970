package ctrlplane

import (
	"context"
	"fmt"

	"brokerset/internal/graph"
	"brokerset/internal/obs"
)

// Group commit: CommitBatch coalesces many concurrent session lifecycle
// operations — setups and teardowns — into ONE two-phase-commit
// round against the union of touched brokers, out of the same steps the
// single-session entry points are made of (see Plane.prepare and
// Plane.decide). Phase 1 PREPAREs every setup's hops in a single broadcast;
// the coordinator then records every decision durably and delivers each
// broker exactly one MsgBatch carrying all of the round's commits, aborts,
// and releases that touch links the broker owns. The broker
// write-ahead-logs that record once (one append for the whole batch) and
// applies each entry with per-session fencing — so crash-atomicity is per
// *session*, not per batch: recovery replays the batch record and resolves
// every session in it independently through the presumed-abort machinery.

// BatchEntryKind enumerates the per-session actions inside a batch record.
type BatchEntryKind uint8

// Batch entry kinds: the three decisions a round can take about a session.
const (
	EntryCommit BatchEntryKind = iota + 1
	EntryAbort
	EntryRelease
)

// BatchEntry is one session-scoped action inside a broker's batch record:
// commit or abort an attempt (ID, Epoch), or credit a released hop back.
type BatchEntry struct {
	Kind  BatchEntryKind
	ID    int
	Epoch uint32
	// Hop and BW are meaningful for EntryRelease only.
	Hop [2]int32
	BW  float64
}

// applyBatchEntries applies a batch record to an agent's holds and done
// fencing, per session — a commit or abort of an already finalized attempt
// is a no-op — and hands every capacity credit the record makes (an aborted
// attempt's holds, a released hop; by ledger row of g) to credit. id is the
// record's MsgID (0: written locally); it is what a finalized attempt is
// fenced by (see fence). It is apply's walBatch case — the one place a
// decision changes an agent, whether the record is delivered live, written
// locally by a lease sweep, a recovery or a departure, or folded from the
// WAL — which is exactly what makes a broker crash between the batch append
// and the ack harmless: recovery reaches the same state the apply had.
func applyBatchEntries(g *graph.Graph, holds map[sessKey][]hold, done map[sessKey]fence, entries []BatchEntry, id uint64, credit func(link int32, bw float64)) {
	for _, e := range entries {
		key := sessKey{e.ID, e.Epoch}
		switch e.Kind {
		case EntryCommit:
			if _, finalized := done[key]; finalized {
				continue // idempotent
			}
			// Holds become durable allocations: availability stays
			// deducted, the hold records retire.
			done[key] = fence{walCommit, fencedAt(holds[key], id)}
			delete(holds, key)
		case EntryAbort:
			if _, finalized := done[key]; finalized {
				continue
			}
			for _, h := range holds[key] {
				credit(h.link, h.bw)
			}
			done[key] = fence{walAbort, fencedAt(holds[key], id)}
			delete(holds, key)
		case EntryRelease:
			if l := linkOf(g, e.Hop[0], e.Hop[1]); l >= 0 {
				credit(l, e.BW)
			}
		}
	}
}

// fencedAt is the id an attempt finalized by record id is fenced by: the
// record's own, which every PREPARE of the attempt precedes, or, for a record
// written locally, the highest PREPARE the agent held for the attempt — the
// coordinator's watermark never stops inside one attempt's PREPAREs, so once
// it passes that one it has passed them all.
func fencedAt(holds []hold, id uint64) uint64 {
	if id != 0 {
		return id
	}
	for _, h := range holds {
		id = max(id, h.id)
	}
	return id
}

// BatchOpKind enumerates the lifecycle operations CommitBatch coalesces.
type BatchOpKind uint8

// Batch operation kinds.
const (
	// BatchSetup sets up a new session over Path at Bandwidth.
	BatchSetup BatchOpKind = iota + 1
	// BatchTeardown releases a committed session: a client's teardown, or
	// the caller's presumed release of a session whose heartbeats stopped.
	BatchTeardown
)

// BatchOp is one lifecycle operation submitted to CommitBatch.
type BatchOp struct {
	Kind BatchOpKind
	// Path and Bandwidth parameterize BatchSetup.
	Path      []int32
	Bandwidth float64
	// Session is the target of BatchTeardown.
	Session *Session
	// Trace is the trace ID of the request that submitted this op (0 =
	// untraced). Group commit runs under the batch LEADER's context, so a
	// follower's trace would otherwise end at its enqueue; carrying it here
	// lets the round's wire messages ride the follower's trace and the
	// leader's commit span link back to every follower it carried.
	Trace uint64
}

// BatchResult is one op's outcome, index-aligned with CommitBatch's input.
type BatchResult struct {
	// Session is the new session of a successful BatchSetup (nil on
	// failure) and echoes the input session for teardown ops.
	Session *Session
	Err     error
}

// CommitBatch runs one coalesced 2PC round over ops. Setups share a single
// prepare broadcast; then every decision (commit for fully-prepared setups,
// abort for the rest, release for teardowns) is
// durably recorded and delivered to each touched broker as one MsgBatch.
// Results are index-aligned with ops; each op succeeds or fails
// independently — one setup hitting a capacity nack never aborts its batch
// peers. ctx bounds delivery retries for the whole round. Same external
// serialization rule as Setup.
func (p *Plane) CommitBatch(ctx context.Context, ops []BatchOp) []BatchResult {
	ctx, span := obs.StartSpan(ctx, "ctrlplane.commit_batch")
	defer span.End()
	span.AnnotateInt("ops", int64(len(ops)))
	// The leader's span links every distinct follower trace the batch
	// carried, so a follower's trace and the shared commit round are
	// navigable from each other even though only the leader's context
	// parents the 2PC spans.
	for _, op := range ops {
		span.Link(op.Trace)
	}
	p.tick()
	results := make([]BatchResult, len(ops))
	r := &p.round
	defer r.reset()

	// Validate and open a fresh attempt for every setup; breaker fast-fails
	// and undominated paths abort before any message is spent. Every
	// teardown of a committed session is a release.
	for i, op := range ops {
		switch op.Kind {
		case BatchSetup:
			s, err := p.begin(op.Path, op.Bandwidth)
			if err != nil {
				results[i].Err = err
				continue
			}
			r.opened, r.traces, r.openedOp = append(r.opened, s), append(r.traces, op.Trace), append(r.openedOp, i)
		case BatchTeardown:
			results[i].Session = op.Session
			if op.Session == nil || op.Session.State != StateCommitted {
				results[i].Err = fmt.Errorf("ctrlplane: teardown of non-committed session")
			} else {
				r.releases, r.releaseOp = append(r.releases, op.Session), append(r.releaseOp, i)
			}
		default:
			results[i].Err = fmt.Errorf("ctrlplane: unknown batch op kind %d", op.Kind)
		}
	}

	// Phase 1: one broadcast PREPAREs every hop of every setup in the batch.
	errs := p.prepare(ctx, r.opened, r.traces)

	if p.batchPrepareCrash != nil && len(r.opened) > 0 && p.batchPrepareCrash() {
		// Chaos seam: the coordinator dies after phase 1 with NO decision
		// recorded for any setup in the batch. Leased holds self-expire via
		// the tick sweep's presumed abort; every op is reported failed.
		p.flight.Record("ctrlplane", "batch_crash", int64(p.d.Now()), "coordinator died mid-batch, %d setups in doubt", "", int64(len(r.opened)))
		// Its memory of the attempts went with it: nothing pins them now.
		for _, s := range r.opened {
			delete(p.pinned, sessKey{s.ID, s.Epoch})
		}
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = fmt.Errorf("ctrlplane: coordinator crashed mid-batch")
			}
		}
		return results
	}

	for j, s := range r.opened {
		if results[r.openedOp[j]].Err = errs[j]; errs[j] != nil {
			r.aborts = append(r.aborts, s)
		} else {
			results[r.openedOp[j]].Session = s
			r.commits = append(r.commits, s)
		}
	}
	for j, err := range p.decide(ctx, r.commits, r.aborts, r.releases) {
		if err != nil {
			results[r.releaseOp[j]].Err = err
		} else {
			p.stats.Teardowns++
		}
	}
	if len(r.opened)+len(r.releases) > 0 {
		p.stats.BatchRounds++
		p.stats.BatchOps += len(ops)
	}
	return results
}

// batchRound is CommitBatch's per-round scratch, kept on the Plane so a
// round allocates none of it: the attempts it opened, with each one's trace
// and index into ops, the sessions it releases, with each one's index, and
// the opened attempts split by their prepare's verdict. prepare and decide
// read these slices and keep none of them, and CommitBatch never runs inside
// itself on one plane (a broadcast's hooks reach other planes), so one set
// serves every round. results is not scratch: callers keep it.
type batchRound struct {
	opened, releases, commits, aborts []*Session
	traces                            []uint64
	openedOp, releaseOp               []int
}

// reset empties the scratch for the next round, keeping its arrays; the
// session pointers are cleared first, so a finished round pins no session.
func (r *batchRound) reset() {
	for _, ss := range [...]*[]*Session{&r.opened, &r.releases, &r.commits, &r.aborts} {
		clear(*ss)
		*ss = (*ss)[:0]
	}
	r.traces, r.openedOp, r.releaseOp = r.traces[:0], r.openedOp[:0], r.releaseOp[:0]
}
