package ctrlplane

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"brokerset/internal/obs"
	"brokerset/internal/routing"
)

// TestCommitBatchMixedOps drives one coalesced round carrying setups and a
// teardown and checks per-op independence: each op lands its own result,
// failures don't poison batch peers, and the whole round bumps the
// capacity version once per direction of change.
func TestCommitBatchMixedOps(t *testing.T) {
	top, m := ringTop(t, 8)
	brokers := make([]int32, 8)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	ctx := context.Background()

	// Seed a committed session to tear down inside the batch.
	pre, err := p.Setup(ctx, 0, 2, 5, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}

	res := p.CommitBatch(ctx, []BatchOp{
		{Kind: BatchSetup, Path: []int32{0, 1, 2}, Bandwidth: 3},
		{Kind: BatchSetup, Path: []int32{4, 5}, Bandwidth: -1},      // invalid bw
		{Kind: BatchTeardown, Session: pre},                         // release peer
		{Kind: BatchSetup, Path: []int32{3, 4, 5, 6}, Bandwidth: 2}, // independent
	})
	if res[0].Err != nil || res[0].Session == nil || res[0].Session.State != StateCommitted {
		t.Fatalf("op0 = %+v, want committed session", res[0])
	}
	if res[1].Err == nil {
		t.Fatal("negative-bandwidth setup accepted")
	}
	if res[2].Err != nil || pre.State != StateReleased {
		t.Fatalf("teardown: err=%v state=%v", res[2].Err, pre.State)
	}
	if res[3].Err != nil || res[3].Session.State != StateCommitted {
		t.Fatalf("op3 = %+v, want committed", res[3])
	}
	live := []*Session{res[0].Session, res[3].Session}
	if err := p.CheckInvariants(live); err != nil {
		t.Fatalf("invariants after mixed batch: %v", err)
	}
	st := p.Stats()
	if st.BatchRounds == 0 || st.BatchOps < 4 {
		t.Fatalf("batch stats unrecorded: %+v", st)
	}
}

// TestSessionNamedTwiceInBatchReleasedOnce: a session named by two teardowns
// of one round gives its capacity back once. The decide step tests the
// session's state when it takes the release, so the second op is refused,
// each hop owner gets one release entry, and the ledgers stay exact.
func TestSessionNamedTwiceInBatchReleasedOnce(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second BatchOpKind
	}{
		{"two teardowns", BatchTeardown, BatchTeardown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, m := ringTop(t, 8)
			p := New(top, m, []int32{0, 1, 2, 3, 4, 5, 6, 7})
			tap := &wireTap{Transport: NewFaultTransport(FaultConfig{})}
			p.UseTransport(tap)
			ctx := context.Background()
			s, err := p.Setup(ctx, 0, 2, 5, routing.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tap.sent = nil
			res := p.CommitBatch(ctx, []BatchOp{
				{Kind: tc.first, Session: s},
				{Kind: tc.second, Session: s},
			})
			if res[0].Err != nil {
				t.Fatalf("first release: %v", res[0].Err)
			}
			if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "teardown of non-committed session") {
				t.Fatalf("second release of the same session: err = %v, want teardown of non-committed session", res[1].Err)
			}
			releases := 0
			for _, msg := range tap.sent {
				for _, e := range msg.Batch {
					if e.Kind == EntryRelease {
						releases++
					}
				}
			}
			if hops := len(s.Path) - 1; releases != hops {
				t.Fatalf("%d release entries sent for a %d-hop session", releases, hops)
			}
			if st := p.Stats(); st.Teardowns != 1 {
				t.Fatalf("teardowns = %d, want 1", st.Teardowns)
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("invariants after a doubly named release: %v", err)
			}
		})
	}
}

// TestBatchWALCrashReplays proves per-session crash-atomicity across the
// batch record, whichever entry point sent it: a broker dies between
// appending the walBatch record and applying it, and recovery replays the
// record to exactly the state the live apply would have reached.
func TestBatchWALCrashReplays(t *testing.T) {
	ctx := context.Background()
	path := []int32{0, 1, 2, 3}
	// Each case runs one entry point with the seam armed and returns the
	// sessions that must be committed afterwards.
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *Plane, arm func()) []*Session
	}{
		{"CommitBatch", func(t *testing.T, p *Plane, arm func()) []*Session {
			arm()
			res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchSetup, Path: path, Bandwidth: 4}})
			if res[0].Err != nil {
				t.Fatalf("setup: %v", res[0].Err)
			}
			return []*Session{res[0].Session}
		}},
		{"Setup", func(t *testing.T, p *Plane, arm func()) []*Session {
			arm()
			s, err := p.Setup(ctx, 0, 3, 4, routing.Options{})
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			return []*Session{s}
		}},
		{"Teardown", func(t *testing.T, p *Plane, arm func()) []*Session {
			s, err := p.Setup(ctx, 0, 3, 4, routing.Options{})
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			arm()
			if err := p.Teardown(ctx, s); err != nil {
				t.Fatalf("teardown: %v", err)
			}
			return nil
		}},
		{"CommitPrepared", func(t *testing.T, p *Plane, arm func()) []*Session {
			s, err := p.PrepareOnPath(ctx, path, 4)
			if err != nil {
				t.Fatalf("prepare: %v", err)
			}
			arm()
			if err := p.CommitPrepared(ctx, s); err != nil {
				t.Fatalf("commit: %v", err)
			}
			return []*Session{s}
		}},
		// The crashed broker leaves the coalition before it recovers: its rows
		// move on carrying the release it logged, and its departure must not
		// settle that release a second time.
		{"Teardown-then-departure", func(t *testing.T, p *Plane, arm func()) []*Session {
			s, err := p.Setup(ctx, 0, 3, 4, routing.Options{})
			if err != nil {
				t.Fatalf("setup: %v", err)
			}
			arm()
			if err := p.Teardown(ctx, s); err != nil {
				t.Fatalf("teardown: %v", err)
			}
			var stay []int32
			for _, b := range p.Brokers() {
				if !p.Crashed(b) {
					stay = append(stay, b)
				}
			}
			p.SetBrokers(stay)
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, m := ringTop(t, 8)
			p := New(top, m, []int32{0, 1, 2, 3, 4, 5, 6, 7})
			folded := watchFold(t, p)
			var crashed []int32
			live := tc.run(t, p, func() {
				p.batchWALCrash = func(b int32) bool {
					if len(crashed) == 0 { // first broker to receive the record dies
						crashed = append(crashed, b)
						return true
					}
					return false
				}
			})
			p.batchWALCrash = nil
			if len(crashed) != 1 {
				t.Fatalf("WAL-crash seam fired %d times, want 1", len(crashed))
			}
			for _, s := range live {
				if s.State != StateCommitted {
					t.Fatalf("state = %v, want committed (decision was durable before phase 2)", s.State)
				}
			}
			p.Recover(crashed[0])
			folded("Recover")
			if err := p.Reconcile(ctx); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
			if err := p.CheckInvariants(live); err != nil {
				t.Fatalf("invariants after WAL-crash replay: %v", err)
			}
			for _, s := range live {
				if err := p.Teardown(ctx, s); err != nil {
					t.Fatalf("teardown after recovery: %v", err)
				}
			}
			if err := p.CheckInvariants(nil); err != nil {
				t.Fatalf("invariants after teardown: %v", err)
			}
		})
	}
}

// TestChaosBatchLifecycle is the group-commit + lease chaos extension:
// hundreds of mixed batches (setups, teardowns, expiry sweeps) run over a
// lossy, duplicating, reordering transport while the coordinator dies
// mid-batch (after phase 1, before any decision), brokers die between the
// batch WAL append and the apply, brokers crash on batch-record delivery,
// partitions roll, and an -abandon-style fraction of sessions stops
// renewing its lease. Session leases are the harness's own, as they are the
// daemon's: a deadline per session on the plane's virtual clock, swept with
// BatchTeardown. At quiescence every abandoned session must have been
// presumed-released exactly once and CheckInvariants must prove
// conservation. Deterministic per CHAOS_SEED.
func TestChaosBatchLifecycle(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("chaos seed %d (rerun with CHAOS_SEED=%d)", seed, seed)

	const (
		nodes      = 12
		iters      = 420
		recoverLag = 25
		sessionTTL = 64
	)
	top, m := ringTop(t, nodes)
	brokers := make([]int32, nodes)
	for i := range brokers {
		brokers[i] = int32(i)
	}
	p := New(top, m, brokers)
	rates := FaultRates{Drop: 0.03, Duplicate: 0.03, Delay: 0.05, MaxDelay: 3, Reorder: 0.05}
	ft := NewFaultTransport(FaultConfig{Seed: seed, ToBroker: rates, ToCoord: rates})
	p.UseTransport(ft)
	p.SetRetryConfig(RetryConfig{
		MaxAttempts: 8, BreakerThreshold: 6, BreakerCooldown: 30,
		LeaseTTL: 30, RetryJitterTicks: 2,
	})
	fr := obs.NewFlightRecorder(4096)
	p.SetFlightRecorder(fr)
	folded := watchFold(t, p)

	// Coordinator dies after phase 1 on fixed batch boundaries: no decision
	// recorded, every leased hold must self-expire via presumed abort.
	prepCalls, prepCrashes := 0, 0
	p.batchPrepareCrash = func() bool {
		prepCalls++
		if prepCalls == 9 || prepCalls == 131 || prepCalls == 277 {
			prepCrashes++
			return true
		}
		return false
	}
	// Brokers die between batch WAL append and apply on fixed deliveries.
	iter := 0
	downSince := map[int32]int{}
	walCalls, walCrashes := 0, 0
	p.batchWALCrash = func(b int32) bool {
		walCalls++
		if (walCalls == 17 || walCalls == 141 || walCalls == 289) && len(downSince) < 2 {
			walCrashes++
			downSince[b] = iter
			return true
		}
		return false
	}
	// And some brokers die on MsgBatch delivery, losing the record entirely
	// — the backlog must redeliver it after recovery.
	deliverSeen, deliverCrashes := 0, 0
	ft.OnDeliver = func(msg Message) {
		if msg.Type != MsgBatch || deliverCrashes >= 2 || len(downSince) >= 2 {
			return
		}
		deliverSeen++
		if deliverSeen%90 == 0 && !p.Crashed(msg.To) {
			p.Crash(msg.To)
			downSince[msg.To] = iter
			deliverCrashes++
		}
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 3))
	var (
		live []*Session
		// orphans were torn down in a round the coordinator died in before
		// deciding: still committed, never renewed again.
		orphans   []*Session
		abandoned = map[int]bool{}
		// deadline is each committed session's lease deadline, by id.
		deadline = map[int]int{}
		commits  int
		expiries int
		partedAt = map[int32]int{}
	)
	committed := func(ss []*Session) []*Session {
		kept := ss[:0]
		for _, s := range ss {
			if s.State == StateCommitted {
				kept = append(kept, s)
			}
		}
		return kept
	}
	renew := func(s *Session) { deadline[s.ID] = p.d.Now() + sessionTTL }
	// The sweeper reads its own table, as brokerd's does: every committed
	// session the test holds whose deadline passed, ascending by id.
	sweep := func() {
		table := append(append([]*Session(nil), live...), orphans...)
		sort.Slice(table, func(i, j int) bool { return table[i].ID < table[j].ID })
		var ops []BatchOp
		for _, s := range table {
			if deadline[s.ID] <= p.d.Now() {
				ops = append(ops, BatchOp{Kind: BatchTeardown, Session: s})
			}
		}
		if len(ops) == 0 {
			return
		}
		for _, r := range p.CommitBatch(ctx, ops) {
			if r.Err == nil && r.Session.State == StateReleased {
				expiries++
				delete(deadline, r.Session.ID)
			}
		}
		live, orphans = committed(live), committed(orphans)
	}
	for iter = 0; iter < iters; iter++ {
		var due []int32
		for b, since := range downSince {
			if iter-since >= recoverLag {
				due = append(due, b)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, b := range due {
			p.Recover(b)
			folded("Recover")
			delete(downSince, b)
		}
		for b, since := range partedAt {
			if iter-since >= 30 {
				ft.Partition(b, false)
				delete(partedAt, b)
			}
		}
		if iter%80 == 40 && len(partedAt) == 0 {
			b := int32(rng.Intn(nodes))
			if !p.Crashed(b) {
				ft.Partition(b, true)
				partedAt[b] = iter
			}
		}

		// One mixed batch per iteration: 1-4 setups plus up to two
		// teardowns of live, non-abandoned sessions.
		var ops []BatchOp
		for n := 1 + rng.Intn(4); n > 0; n-- {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			if src == dst {
				dst = (dst + 1) % nodes
			}
			ops = append(ops, BatchOp{Kind: BatchSetup,
				Path: []int32{int32(src), int32((src + 1) % nodes)}, Bandwidth: 1 + 3*rng.Float64()})
			_ = dst
		}
		for n := rng.Intn(3); n > 0 && len(live) > 0; n-- {
			i := rng.Intn(len(live))
			if !abandoned[live[i].ID] {
				ops = append(ops, BatchOp{Kind: BatchTeardown, Session: live[i]})
				live = append(live[:i], live[i+1:]...)
			}
		}
		for i, r := range p.CommitBatch(ctx, ops) {
			if ops[i].Kind == BatchTeardown && r.Session.State == StateCommitted {
				orphans = append(orphans, r.Session)
			}
			if ops[i].Kind == BatchSetup && r.Err == nil && r.Session.State == StateCommitted {
				commits++
				live = append(live, r.Session)
				renew(r.Session)
				if rng.Float64() < 0.3 {
					abandoned[r.Session.ID] = true // never renewed again
				}
			}
		}
		// Heartbeats for everything not abandoned; sweep every 7th iter.
		for _, s := range live {
			if !abandoned[s.ID] {
				renew(s)
			}
		}
		if iter%7 == 0 {
			sweep()
		}
	}

	// Quiesce: seams off, network healed, everyone recovered.
	p.batchPrepareCrash, p.batchWALCrash, ft.OnDeliver = nil, nil, nil
	for b := range partedAt {
		ft.Partition(b, false)
	}
	var down []int32
	for b := range downSince {
		down = append(down, b)
	}
	sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
	for _, b := range down {
		p.Recover(b)
		folded("Recover")
	}
	if err := p.Reconcile(ctx); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatalf("reconcile: %v (seed %d)", err, seed)
	}
	// Let every abandoned lease lapse and sweep it out; renew nothing.
	for i := 0; i < sessionTTL+1; i++ {
		p.Tick()
		folded("Tick")
	}
	sweep()
	for _, s := range live {
		if abandoned[s.ID] {
			dumpFlight(t, fr, seed, "abandoned session survived expiry")
			t.Fatalf("abandoned session %d still committed after TTL + sweep (seed %d)", s.ID, seed)
		}
	}
	if err := p.CheckInvariants(live); err != nil {
		dumpFlight(t, fr, seed, err.Error())
		t.Fatalf("invariants violated: %v (seed %d)", err, seed)
	}

	st := p.Stats()
	t.Logf("commits=%d live=%d expiries=%d prepCrashes=%d walCrashes=%d deliverCrashes=%d stats=%+v",
		commits, len(live), expiries, prepCrashes, walCrashes, deliverCrashes, st)
	if commits == 0 {
		t.Fatal("nothing committed under chaos")
	}
	if prepCrashes < 2 || walCrashes < 2 || deliverCrashes < 1 {
		t.Fatalf("crash seams unexercised: prep=%d wal=%d deliver=%d", prepCrashes, walCrashes, deliverCrashes)
	}
	if expiries == 0 {
		t.Fatal("no abandoned sessions were presumed-released")
	}
	if st.BatchRounds < iters/2 {
		t.Fatalf("batch rounds = %d, want >= %d", st.BatchRounds, iters/2)
	}
}

// TestLeaseExpiryUnderPartitionNoDoubleRelease pins the no-double-release
// guarantee end to end for what a lease expiry is to the plane — a teardown
// the client never sent: the session's owner is partitioned away, the release
// record can reach it only through the backlog, and when the partition heals,
// capacity comes back exactly once. A second teardown of the released session
// is refused.
func TestLeaseExpiryUnderPartitionNoDoubleRelease(t *testing.T) {
	top, m := ringTop(t, 6)
	brokers := []int32{0, 1, 2, 3, 4, 5}
	p := New(top, m, brokers)
	ft := NewFaultTransport(FaultConfig{Seed: 1, ToBroker: FaultRates{Duplicate: 0.5}})
	p.UseTransport(ft)
	p.SetRetryConfig(RetryConfig{MaxAttempts: 3})
	ctx := context.Background()

	res := p.CommitBatch(ctx, []BatchOp{{Kind: BatchSetup, Path: []int32{0, 1, 2}, Bandwidth: 5}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	s := res[0].Session
	availBefore := m.Available(0, 1)

	owner := s.owners[0]
	ft.Partition(owner, true)
	r := p.CommitBatch(ctx, []BatchOp{{Kind: BatchTeardown, Session: s}})
	if r[0].Err != nil {
		t.Fatalf("teardown under partition: %v", r[0].Err)
	}
	if s.State != StateReleased {
		t.Fatalf("state = %v, want released", s.State)
	}
	r = p.CommitBatch(ctx, []BatchOp{{Kind: BatchTeardown, Session: s}})
	if r[0].Err == nil {
		t.Fatal("second teardown of a released session accepted")
	}

	// Heal; the backlogged release record (and its duplicates) must credit
	// the owner exactly once.
	ft.Partition(owner, false)
	if err := p.Reconcile(ctx); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if got := m.Available(0, 1); got != availBefore+5 {
		t.Fatalf("hop (0,1) available = %v, want %v (exactly one release)", got, availBefore+5)
	}
	if err := p.CheckInvariants(nil); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if p.Stats().Teardowns != 1 {
		t.Fatalf("teardowns = %d, want 1", p.Stats().Teardowns)
	}
}

// retryTap wraps a transport, black-holing sends to chosen brokers while
// recording the virtual round (Advance count) of every send attempt —
// the probe for observing a retry schedule.
type retryTap struct {
	Transport
	drop  map[int32]bool
	round int
	sends map[uint64][]int // prepare MsgID -> rounds at which it was (re)sent
}

func (t *retryTap) Send(m Message) {
	if m.Type == MsgPrepare {
		t.sends[m.MsgID] = append(t.sends[m.MsgID], t.round)
	}
	if t.drop[m.To] {
		return
	}
	t.Transport.Send(m)
}
func (t *retryTap) Advance() { t.round++; t.Transport.Advance() }

// TestJitteredRetriesDesynchronize pins the satellite requirement: without
// jitter, colliding retriers hammer their targets on identical ticks; with
// RetryJitterTicks the same colliding messages spread over distinct
// schedules — the post-partition retry storm de-synchronizes.
func TestJitteredRetriesDesynchronize(t *testing.T) {
	schedules := func(jitter int) map[uint64][]int {
		top, m := lineTop(t)
		p := New(top, m, []int32{1, 2, 3})
		tap := &retryTap{Transport: NewFaultTransport(FaultConfig{}), drop: map[int32]bool{1: true, 2: true, 3: true},
			sends: map[uint64][]int{}}
		p.UseTransport(tap)
		p.SetRetryConfig(RetryConfig{MaxAttempts: 5, BreakerThreshold: 100, RetryJitterTicks: jitter})
		// All brokers black-holed: every prepare retries to exhaustion.
		if _, err := p.Setup(context.Background(), 0, 4, 1, routing.Options{}); err == nil {
			t.Fatal("setup succeeded against black-holed brokers")
		}
		// Keep only the prepare messages (first IDs, retried to the cap).
		got := map[uint64][]int{}
		for id, rounds := range tap.sends {
			if len(rounds) == 5 {
				got[id] = rounds
			}
		}
		return got
	}

	lockstep := schedules(0)
	if len(lockstep) < 2 {
		t.Fatalf("want >= 2 colliding retriers, got %d", len(lockstep))
	}
	var ref []int
	for _, rounds := range lockstep {
		if ref == nil {
			ref = rounds
			continue
		}
		if !equalInts(ref, rounds) {
			t.Fatalf("jitter off: retriers not in lockstep: %v vs %v", ref, rounds)
		}
	}

	jittered := schedules(4)
	if len(jittered) < 2 {
		t.Fatalf("want >= 2 colliding retriers, got %d", len(jittered))
	}
	distinct := false
	ref = nil
	for _, rounds := range jittered {
		if ref == nil {
			ref = rounds
			continue
		}
		if !equalInts(ref, rounds) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatalf("jitter on: every retrier still on the same schedule: %v", jittered)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
