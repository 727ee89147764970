package ctrlplane

import (
	"context"
	"fmt"

	"brokerset/internal/graph"
	"brokerset/internal/obs"
)

// Group commit: CommitBatch coalesces many concurrent session lifecycle
// operations — setups, teardowns, lease expiries — into ONE two-phase-commit
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
// attempt's holds, a released hop; by ledger row of g) to credit. It is the
// only function that changes a ledger on a decision — shared by live
// delivery (deliver's MsgBatch case), WAL replay, and the records a lease
// sweep or a recovery writes locally — which is exactly what makes a broker
// crash between the batch append and the apply harmless: recovery reaches
// the same state the apply would have.
func applyBatchEntries(g *graph.Graph, holds map[sessKey][]hold, done map[sessKey]walOp, entries []BatchEntry, credit func(link int32, bw float64)) {
	for _, e := range entries {
		key := sessKey{e.ID, e.Epoch}
		switch e.Kind {
		case EntryCommit:
			if done[key] != 0 {
				continue // finalized: idempotent
			}
			// Holds become durable allocations: availability stays
			// deducted, the hold records retire.
			delete(holds, key)
			done[key] = walCommit
		case EntryAbort:
			if done[key] != 0 {
				continue
			}
			for _, h := range holds[key] {
				credit(h.link, h.bw)
			}
			delete(holds, key)
			done[key] = walAbort
		case EntryRelease:
			if l := linkOf(g, e.Hop[0], e.Hop[1]); l >= 0 {
				credit(l, e.BW)
			}
		}
	}
}

// BatchOpKind enumerates the lifecycle operations CommitBatch coalesces.
type BatchOpKind uint8

// Batch operation kinds.
const (
	// BatchSetup sets up a new session over Path at Bandwidth.
	BatchSetup BatchOpKind = iota + 1
	// BatchTeardown releases a committed session (client-requested).
	BatchTeardown
	// BatchExpire presumed-releases a committed session whose heartbeat
	// lease lapsed. Unlike BatchTeardown it re-checks the lease under the
	// plane's serialization: a renewal that raced the sweeper's decision to
	// expire wins, and the op is refused — the no-double-release guard.
	BatchExpire
)

// BatchOp is one lifecycle operation submitted to CommitBatch.
type BatchOp struct {
	Kind BatchOpKind
	// Path and Bandwidth parameterize BatchSetup.
	Path      []int32
	Bandwidth float64
	// Session is the target of BatchTeardown and BatchExpire.
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
	// failure) and echoes the input session for teardown/expire ops.
	Session *Session
	Err     error
}

// CommitBatch runs one coalesced 2PC round over ops. Setups share a single
// prepare broadcast; then every decision (commit for fully-prepared setups,
// abort for the rest, release for teardowns and still-lapsed expiries) is
// durably recorded and delivered to each touched broker as one MsgBatch.
// Results are index-aligned with ops; each op succeeds or fails
// independently — one setup hitting a capacity nack never aborts its batch
// peers. ctx bounds delivery retries for the whole round. Same external
// serialization rule as Setup.
func (p *Plane) CommitBatch(ctx context.Context, ops []BatchOp) []BatchResult {
	ctx, span := obs.StartSpan(ctx, "ctrlplane.commit_batch")
	defer span.End()
	span.Annotatef("ops", "%d", len(ops))
	// The leader's span links every distinct follower trace the batch
	// carried, so a follower's trace and the shared commit round are
	// navigable from each other even though only the leader's context
	// parents the 2PC spans.
	for _, op := range ops {
		span.Link(op.Trace)
	}
	p.tick()
	results := make([]BatchResult, len(ops))

	// Validate and open a fresh attempt for every setup; breaker fast-fails
	// and undominated paths abort before any message is spent.
	var (
		opened   []*Session
		traces   []uint64
		openedOp []int // index into ops/results, aligned with opened
	)
	for i, op := range ops {
		switch op.Kind {
		case BatchSetup:
			s, err := p.begin(op.Path, op.Bandwidth)
			if err != nil {
				results[i].Err = err
				continue
			}
			opened, traces, openedOp = append(opened, s), append(traces, op.Trace), append(openedOp, i)
		case BatchTeardown, BatchExpire:
			results[i].Session = op.Session
			if op.Session == nil || op.Session.State != StateCommitted {
				results[i].Err = fmt.Errorf("ctrlplane: teardown of non-committed session")
			}
		default:
			results[i].Err = fmt.Errorf("ctrlplane: unknown batch op kind %d", op.Kind)
		}
	}

	// Phase 1: one broadcast PREPAREs every hop of every setup in the batch.
	errs := p.prepare(ctx, opened, traces)

	if p.batchPrepareCrash != nil && len(opened) > 0 && p.batchPrepareCrash() {
		// Chaos seam: the coordinator dies after phase 1 with NO decision
		// recorded for any setup in the batch. Leased holds self-expire via
		// the tick sweep's presumed abort; every op is reported failed.
		p.flight.Recordf("ctrlplane", "batch_crash", int64(p.d.Now()), "coordinator died mid-batch, %d setups in doubt", len(opened))
		for i := range results {
			if results[i].Err == nil {
				results[i].Err = fmt.Errorf("ctrlplane: coordinator crashed mid-batch")
			}
		}
		return results
	}

	var commits, aborts []*Session
	for j, s := range opened {
		if results[openedOp[j]].Err = errs[j]; errs[j] != nil {
			aborts = append(aborts, s)
		} else {
			results[openedOp[j]].Session = s
			commits = append(commits, s)
		}
	}
	// Releases: teardowns unconditionally, expiries only if the lease is
	// STILL lapsed here, under the plane's serialization — a renewal that
	// landed after the sweeper chose the session keeps it alive.
	var (
		releases  []*Session
		releaseOp []int
	)
	for i, op := range ops {
		if results[i].Err != nil || (op.Kind != BatchTeardown && op.Kind != BatchExpire) {
			continue
		}
		if op.Kind == BatchExpire && !p.SessionLeaseLapsed(op.Session) {
			results[i].Err = fmt.Errorf("ctrlplane: session %d lease renewed — expiry refused", op.Session.ID)
			continue
		}
		releases, releaseOp = append(releases, op.Session), append(releaseOp, i)
	}

	for j, err := range p.decide(ctx, commits, aborts, releases) {
		s, i := releases[j], releaseOp[j]
		switch {
		case err != nil:
			results[i].Err = err
		case ops[i].Kind == BatchExpire:
			p.stats.SessionExpiries++
			p.flight.Recordf("ctrlplane", "session_expire", int64(p.d.Now()), "session %d.%d presumed-released", s.ID, s.Epoch)
		default:
			p.stats.Teardowns++
		}
	}
	if len(opened)+len(releases) > 0 {
		p.stats.BatchRounds++
		p.stats.BatchOps += len(ops)
	}
	return results
}
