package daemon

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// committer is brokerd's group-commit front end to the control plane:
// concurrent session setups and teardowns enqueue here, and whichever
// request thread acquires writeMu next becomes the leader for everything
// queued behind it — one ctrlplane.CommitBatch round (one 2PC prepare
// broadcast, one batch record per touched broker) and ONE snapshot publish
// per batch, instead of one full round and publish per request. Leadership
// rotates naturally: while a leader drains, later arrivals enqueue and
// block on writeMu; the first one in inherits the next batch.
//
// Degraded mode: when the queue backs up past highWater the committer
// sheds NEW setups (HTTP 429 + Retry-After) while teardowns — which shrink
// load — are always accepted, and lease renewals bypass the queue
// entirely. Shrink-before-refuse: a saturated plane keeps draining.
type committer struct {
	s *Daemon

	mu    sync.Mutex
	queue []*pendingOp

	// highWater is the queue depth above which new setups are shed
	// (0 disables shedding).
	highWater int

	shed atomic.Uint64
}

// errSetupShed is returned to setup submitters refused in degraded mode;
// setupRetryAfter is the advisory backoff clients get with the 429.
var errSetupShed = errors.New("brokerd: setup queue over high-water mark, retry later")

const setupRetryAfter = time.Second

// pendingOp is one queued lifecycle request plus its reply slot.
type pendingOp struct {
	// Setup inputs: the request, the path precomputed lock-free against a
	// pinned snapshot (nil when that snapshot had no dominated path, or its
	// search failed), the search's routing.ErrNoPath when it found none, and
	// the snapshot's epoch for the staleness fallbacks.
	req    sessionRequest
	path   []int32
	noPath error
	snapID uint64
	// teardown makes this a teardown of session id instead; the leader looks
	// the id up under writeMu.
	teardown bool
	id       int

	// trace is the submitting request's trace ID, captured at submit time:
	// only the batch leader's context reaches CommitBatch, so without this
	// a follower's trace would end at the enqueue and its 2PC work would be
	// invisible to /debug/trace.
	trace uint64

	// sess is the committed session's record, already in the table.
	sess *ctrlplane.Session
	err  error
	done chan struct{}
}

// submit enqueues op and drives the group-commit protocol until op has a
// result. The op that flips the queue empty→non-empty is the batch LEADER:
// it alone acquires writeMu, drains everything queued behind it, and runs
// the round. Every other submitter just parks on its done channel — if
// followers also queued on writeMu, each would wake after the batch into
// an empty-leader convoy that drains the next arrival as a singleton,
// destroying the amortization this exists for. Returns errSetupShed
// without enqueueing when degraded. ctx supplies the leader's trace
// context (the batch's 2PC spans attach to whichever request leads); its
// cancellation is NOT honored mid-batch — a leader's client disconnecting
// must not abort its batch peers' commits.
func (c *committer) submit(ctx context.Context, op *pendingOp) error {
	op.trace = obs.TraceIDFrom(ctx)
	c.mu.Lock()
	if !op.teardown && c.highWater > 0 && len(c.queue) >= c.highWater {
		depth := len(c.queue)
		c.mu.Unlock()
		c.shed.Add(1)
		c.s.flight.Record("brokerd", "setup_shed", 0,
			"queue depth %d over high water %d", "", int64(depth), int64(c.highWater))
		return errSetupShed
	}
	c.queue = append(c.queue, op)
	lead := len(c.queue) == 1
	c.mu.Unlock()
	if !lead {
		<-op.done
		return nil
	}

	c.s.writeMu.Lock()
	// Group-commit beat: yield until the queue stops growing (bounded) so
	// concurrent submitters — runnable but not yet enqueued, especially on
	// few cores where nothing else ran while writeMu was held — land in
	// THIS batch instead of leading the next one. An uncontended submit
	// sees one no-growth check and proceeds immediately.
	for prev, spins := -1, 0; spins < 8; spins++ {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}
	c.mu.Lock()
	batch := c.queue
	c.queue = nil
	c.mu.Unlock()
	c.processBatch(ctx, batch)
	c.s.writeMu.Unlock()
	<-op.done
	return nil
}

// processBatch runs one coalesced commit round for batch. Caller holds
// writeMu, and so every table access of the round happens under it: a
// teardown's id is taken out of the table here, and a committed setup is put
// in before the leader lets go — a heal can never re-path a record a
// teardown already holds, nor miss a session that just committed. Setups
// whose precomputed path went stale (the epoch moved, or the pinned snapshot
// had no path at all) fall back to a live-state serial setup, and the
// post-commit damage check reuses the repair flow — the same two guards the
// serial path had. A setup whose pinned snapshot had no path is refused
// without a second search while neither the epoch nor this round's commit
// moved anything: every mutation publishes before it lets go of writeMu, so
// the search would read that snapshot's capacities. A round that did move the
// plane (a batched teardown frees capacity before the round publishes) falls
// back like a stale path. Exactly one snapshot is published when anything
// changed.
func (c *committer) processBatch(ctx context.Context, batch []*pendingOp) {
	s := c.s
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), opTimeout)
	defer cancel()
	before := s.plane.Version()
	epoch := s.pub.Epoch()

	ops := make([]ctrlplane.BatchOp, 0, len(batch))
	idx := make([]int, 0, len(batch))
	for i, op := range batch {
		switch {
		case op.teardown:
			sess, ok := s.sessions.Delete(op.id)
			delete(s.leases, op.id)
			if !ok {
				op.err = errNoSession
				continue
			}
			ops = append(ops, ctrlplane.BatchOp{Kind: ctrlplane.BatchTeardown, Session: sess, Trace: op.trace})
			idx = append(idx, i)
		case op.path != nil:
			ops = append(ops, ctrlplane.BatchOp{Kind: ctrlplane.BatchSetup, Path: op.path, Bandwidth: op.req.Gbps, Trace: op.trace})
			idx = append(idx, i)
		}
	}
	results := s.plane.CommitBatch(ctx, ops)
	for k, r := range results {
		batch[idx[k]].sess, batch[idx[k]].err = r.Session, r.Err
	}
	for _, op := range batch {
		if op.teardown {
			continue
		}
		switch {
		case op.noPath != nil && epoch == op.snapID && s.plane.Version() == before:
			// The answer the serial setup's search would give, worded alike.
			op.err = fmt.Errorf("ctrlplane: no dominated path: %w", op.noPath)
		case op.path == nil || (op.err != nil && epoch != op.snapID):
			// The pinned snapshot gave no path (none under a moved epoch or
			// plane, or the search itself failed), or a snapshot-valid path became
			// uncommittable under a moved epoch: live state is the authority
			// before reporting failure.
			op.sess, op.err = s.plane.Setup(ctx, op.req.Src, op.req.Dst, op.req.Gbps, routing.Options{})
		}
		if op.err == nil && epoch != op.snapID && s.plane.SessionDamaged(op.sess) {
			// Churn landed between path pin and commit and broke a hop we
			// just reserved. Reuse the repair flow; a failed repath holds
			// nothing.
			var rerr error
			if op.sess, rerr = s.plane.Repath(ctx, op.sess, routing.Options{}); rerr != nil {
				op.err = fmt.Errorf("brokerd: setup raced topology change and repath failed: %w", rerr)
			}
		}
		if op.err == nil {
			s.sessions.Put(op.sess)
			s.grantLease(op.sess.ID)
		}
	}
	s.publishIfMoved(ctx, before)
	for _, op := range batch {
		close(op.done)
	}
}

// registerMetrics exposes the committer's degraded-mode surface.
func (c *committer) registerMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		c.mu.Lock()
		depth := len(c.queue)
		c.mu.Unlock()
		emit(obs.Sample{Name: "ctrlplane_batch_queue_depth", Help: "lifecycle ops queued for the next group-commit batch",
			Kind: obs.KindGauge, Value: float64(depth)})
		emit(obs.Sample{Name: "ctrlplane_batch_shed_total", Help: "setups shed by group-commit queue backpressure",
			Kind: obs.KindCounter, Value: float64(c.shed.Load())})
	})
}
