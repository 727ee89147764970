package daemon

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/churn"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/workload"
)

// leaseClock installs a lease clock on srv that only the test moves, before
// any lease is granted, and returns the function that advances it.
func leaseClock(srv *Daemon) (advance func(time.Duration)) {
	base := time.Now()
	var off atomic.Int64
	srv.now = func() time.Time { return base.Add(time.Duration(off.Load())) }
	return func(d time.Duration) { off.Add(int64(d)) }
}

// checkLeaseTable fails unless the deadline table holds exactly the ids of
// the session table: the invariant whenever writeMu is free.
func checkLeaseTable(t *testing.T, srv *Daemon) {
	t.Helper()
	srv.writeMu.Lock()
	defer srv.writeMu.Unlock()
	standing := srv.sessions.List()
	for _, s := range standing {
		if _, ok := srv.leases[s.ID]; !ok {
			t.Errorf("standing session %d holds no deadline", s.ID)
		}
	}
	if len(srv.leases) != len(standing) {
		t.Errorf("%d deadlines for %d standing sessions", len(srv.leases), len(standing))
	}
}

// TestRenewVsSweeperRace races heartbeat renewals against the expiry
// sweeper on the same sessions. Run under -race this proves the renew/sweep
// serialization on writeMu; regardless of who wins each round, a session
// must end either still committed (lease kept alive) or released exactly
// once — never both, never neither — and the plane's conservation
// invariants must hold.
//
// Nothing here waits on the wall clock: the daemon's lease clock is a
// counter the sweepers advance before each pass, a sixteenth of the TTL at a
// time — which no lease lapses under while four renewers cycle over eight
// sessions — except for one stall of two TTLs per sweeper, after which
// every lease is past due and a session survives only if a renewal lands
// between the stall and that sweep taking writeMu. The race lasts a fixed
// number of passes, every goroutine yields between steps so it is a race on
// one CPU too, and every sweep runs to completion on a live context — a
// sweep cut off mid-broadcast leaves its release decision in the delivery
// backlog, which is the daemon being right and CheckInvariants rightly
// refusing to look.
func TestRenewVsSweeperRace(t *testing.T) {
	const ttl = 2 * time.Millisecond
	srv, ts := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: ttl})
	advance := leaseClock(srv)

	// A pool of sessions to fight over.
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/sessions", "application/json",
			strings.NewReader(fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":0.5}`, i, i+10)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sessions := srv.sessions.List()
	if len(sessions) == 0 {
		t.Fatal("no sessions established")
	}

	ctx := context.Background()
	var swept atomic.Bool
	var renewers, sweepers sync.WaitGroup
	for w := 0; w < 4; w++ { // renewers: hammer every session's heartbeat
		renewers.Add(1)
		go func(w int) {
			defer renewers.Done()
			for i := 2 * w; !swept.Load(); i++ {
				srv.Renew(sessions[i%len(sessions)].ID)
				runtime.Gosched()
			}
		}(w)
	}
	for w := 0; w < 2; w++ { // sweepers: expire whatever lapsed
		sweepers.Add(1)
		go func(w int) {
			defer sweepers.Done()
			for pass := 0; pass < 400; pass++ {
				step := ttl / 16
				if pass == 100*(w+1) {
					step = 2 * ttl
				}
				advance(step)
				runtime.Gosched()
				srv.sweepLeases(ctx)
			}
		}(w)
	}
	sweepers.Wait()
	swept.Store(true)
	renewers.Wait()

	var committed []*ctrlplane.Session
	released := 0
	for _, s := range sessions {
		switch s.State {
		case ctrlplane.StateCommitted:
			committed = append(committed, s)
		case ctrlplane.StateReleased:
			released++
			if srv.Renew(s.ID) {
				t.Fatalf("session %d released but still renewable", s.ID)
			}
		default:
			t.Fatalf("session %d in state %v after race", s.ID, s.State)
		}
	}
	checkLeaseTable(t, srv)
	srv.writeMu.Lock()
	defer srv.writeMu.Unlock()
	c := srv.leaseCounts
	if c.expiries != released {
		t.Fatalf("%d sessions ended released but the daemon counts %d expiries: a session was released twice, or by something else",
			released, c.expiries)
	}
	if kept := len(srv.sessions.List()); kept != len(committed) {
		t.Fatalf("session table holds %d sessions, %d are still committed", kept, len(committed))
	}
	if err := srv.plane.CheckInvariants(committed); err != nil {
		t.Fatalf("invariants after renew/sweep race: %v", err)
	}
	t.Logf("renewals=%d misses=%d expiries=%d committed=%d",
		c.renewals, c.misses, c.expiries, len(committed))
}

// TestRepathKeepsLeaseDeadline: a lease is keyed by session id, so a heal
// that re-paths a session into a new record leaves its deadline where it was.
// Churn must not keep an abandoned session alive.
func TestRepathKeepsLeaseDeadline(t *testing.T) {
	const ttl = time.Hour
	srv, _ := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: ttl})
	advance := leaseClock(srv)
	ctx := context.Background()
	bs := srv.currentBrokers()
	sess, err := srv.Setup(ctx, int(bs[0]), int(bs[1]), 0.01)
	if err != nil {
		t.Fatal(err)
	}

	advance(ttl * 3 / 4)
	res, err := srv.Churn(ctx, []churn.Event{{Type: churn.LinkFail, U: sess.Path[0], V: sess.Path[1]}}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := srv.Session(sess.ID); res.Heal.SessionsRepaired != 1 || !ok || cur.Epoch != sess.Epoch+1 {
		t.Fatalf("heal did not re-path session %d: %+v", sess.ID, res.Heal)
	}

	advance(ttl / 2)
	if n := srv.sweepLeases(ctx); n != 1 {
		t.Fatalf("sweep at 1.25 TTL released %d sessions, want 1: the repath extended the lease", n)
	}
	if _, ok := srv.Session(sess.ID); ok || srv.Renew(sess.ID) {
		t.Fatalf("session %d outlived its lease", sess.ID)
	}
	checkLeaseTable(t, srv)
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHealExpiresLapsedFirst: a heal expires every lapsed session before it
// repairs anything, so a damaged session whose heartbeats stopped is
// released, not re-pathed; and a session the heal aborts takes its deadline
// with it.
func TestHealExpiresLapsedFirst(t *testing.T) {
	const ttl = time.Hour
	srv, ts := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: ttl})
	advance := leaseClock(srv)
	ctx := context.Background()
	bs := srv.currentBrokers()
	broker := map[int32]bool{}
	for _, b := range bs {
		broker[b] = true
	}
	lapsed, err := srv.Setup(ctx, int(bs[0]), int(bs[1]), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	advance(ttl / 2)
	kept, err := srv.Setup(ctx, int(bs[2]), int(bs[3]), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// doomed starts at a non-broker node no other session touches; the heal
	// finds no path once that node leaves, and aborts it.
	var doomed *ctrlplane.Session
	for v := 0; v < srv.top.NumNodes() && doomed == nil; v++ {
		if broker[int32(v)] || slices.Contains(lapsed.Path, int32(v)) || slices.Contains(kept.Path, int32(v)) {
			continue
		}
		doomed, _ = srv.Setup(ctx, v, int(bs[4]), 0.01)
	}
	if doomed == nil {
		t.Fatal("no session from a non-broker node")
	}
	before, err := workload.FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	advance(ttl * 3 / 4) // lapsed's deadline passed, the others' did not
	res, err := srv.Churn(ctx, []churn.Event{
		{Type: churn.LinkFail, U: lapsed.Path[0], V: lapsed.Path[1]},
		{Type: churn.NodeLeave, Node: doomed.Path[0]},
	}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	after, err := workload.FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.Session(lapsed.ID); ok {
		t.Fatalf("lapsed session %d survived the heal", lapsed.ID)
	}
	if d := after["healer_sessions_repaired_total"] - before["healer_sessions_repaired_total"]; d != 0 || res.Heal.SessionsRepaired != 0 {
		t.Fatalf("heal repaired %v session(s); the damaged one had lapsed", d)
	}
	if d := after["ctrlplane_lease_session_expiries_total"] - before["ctrlplane_lease_session_expiries_total"]; d != 1 {
		t.Fatalf("%v lease expiries, want 1", d)
	}
	if _, ok := srv.Session(doomed.ID); ok || res.Heal.SessionsAborted != 1 {
		t.Fatalf("heal did not abort session %d: %+v", doomed.ID, res.Heal)
	}
	if got, want := after["ctrlplane_lease_active"], float64(len(srv.Sessions())); got != want || want != 1 {
		t.Fatalf("ctrlplane_lease_active = %v after the heal, %v session(s) standing", got, want)
	}
	checkLeaseTable(t, srv)
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
