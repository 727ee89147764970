package daemon

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/ctrlplane"
)

// TestRenewVsSweeperRace races heartbeat renewals against the expiry
// sweeper on the same sessions. Run under -race this proves the renew/sweep
// serialization on writeMu; regardless of who wins each round, a session
// must end either still committed (lease kept alive) or released exactly
// once — never both, never neither — and the plane's conservation
// invariants must hold.
//
// Nothing here waits on the wall clock: the lease clock is a counter the
// sweepers advance before each pass, a sixteenth of the TTL at a time —
// which no lease lapses under while four renewers cycle over eight
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
	var clock atomic.Int64
	clock.Store(1)
	srv.plane.SetLeaseClock(clock.Load) // before any lease is granted

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
				step := int64(ttl) / 16
				if pass == 100*(w+1) {
					step = 2 * int64(ttl)
				}
				clock.Add(step)
				runtime.Gosched()
				srv.sweepLeases(ctx)
			}
		}(w)
	}
	sweepers.Wait()
	swept.Store(true)
	renewers.Wait()

	srv.writeMu.Lock()
	defer srv.writeMu.Unlock()
	var committed []*ctrlplane.Session
	released := 0
	for _, s := range sessions {
		switch s.State {
		case ctrlplane.StateCommitted:
			committed = append(committed, s)
		case ctrlplane.StateReleased:
			released++
			if srv.plane.RenewSession(s) {
				t.Fatalf("session %d released but still renewable", s.ID)
			}
		default:
			t.Fatalf("session %d in state %v after race", s.ID, s.State)
		}
	}
	st := srv.plane.Stats()
	if st.SessionExpiries != released {
		t.Fatalf("%d sessions ended released but the plane counts %d expiries: a session was released twice, or by something else",
			released, st.SessionExpiries)
	}
	if kept := len(srv.sessions.List()); kept != len(committed) {
		t.Fatalf("session table holds %d sessions, %d are still committed", kept, len(committed))
	}
	if err := srv.plane.CheckInvariants(committed); err != nil {
		t.Fatalf("invariants after renew/sweep race: %v", err)
	}
	t.Logf("renewals=%d misses=%d expiries=%d committed=%d",
		st.LeaseRenewals, st.LeaseRenewMisses, st.SessionExpiries, len(committed))
}
