package daemon

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"brokerset/internal/ctrlplane"
)

// TestRenewVsSweeperRace races heartbeat renewals against the expiry
// sweeper on the same sessions under an aggressively short TTL. Run under
// -race this proves the renew/sweep serialization on writeMu; regardless
// of who wins each round, a session must end either still committed
// (lease kept alive) or released exactly once — never both, never neither
// — and the plane's conservation invariants must hold.
func TestRenewVsSweeperRace(t *testing.T) {
	srv, ts := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: 2 * time.Millisecond})

	// A pool of sessions to fight over.
	var sessions []*ctrlplane.Session
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/sessions", "application/json",
			strings.NewReader(fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":0.5}`, i, i+10)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	sessions = srv.sessions.List()
	if len(sessions) == 0 {
		t.Fatal("no sessions established")
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ { // renewers: hammer every session's heartbeat
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				for _, s := range sessions {
					srv.writeMu.Lock()
					srv.plane.RenewSession(s.ID)
					srv.writeMu.Unlock()
				}
			}
		}()
	}
	for w := 0; w < 2; w++ { // sweepers: expire whatever lapsed
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				srv.sweepLeases(ctx)
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	cancel()
	wg.Wait()

	srv.writeMu.Lock()
	defer srv.writeMu.Unlock()
	var committed []*ctrlplane.Session
	for _, s := range sessions {
		switch s.State {
		case ctrlplane.StateCommitted:
			committed = append(committed, s)
		case ctrlplane.StateReleased:
			// Presumed-released exactly once; its lease must be gone.
			if srv.plane.RenewSession(s.ID) {
				t.Fatalf("session %d released but still renewable", s.ID)
			}
		default:
			t.Fatalf("session %d in state %v after race", s.ID, s.State)
		}
	}
	if err := srv.plane.CheckInvariants(committed); err != nil {
		t.Fatalf("invariants after renew/sweep race: %v", err)
	}
	st := srv.plane.Stats()
	t.Logf("renewals=%d misses=%d expiries=%d committed=%d",
		st.LeaseRenewals, st.LeaseRenewMisses, st.SessionExpiries, len(committed))
}
