package federation

import (
	"context"
	"errors"
	"sync"
	"testing"

	"brokerset/internal/ctrlplane"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// TestFabricOrdersItsOwnCallers drives the fabric as the concurrent component
// it is, with no lock around it: readers stitch paths and read stats,
// sessions and gossip views while writers set sessions up and tear them down,
// beat (tick, gossip, heal), heal, and bounce the transit region. Under -race
// this is the check that every exported method takes the fabric's lock on the
// right side, and that nobody writes a session record once it is handed out;
// at the end the fabric must reconcile to a conserved state.
func TestFabricOrdersItsOwnCallers(t *testing.T) {
	f := fedFabric(t, 4, 2, Config{Seed: 7, Retry: ctrlplane.RetryConfig{LeaseTTL: 500}})
	ctx := context.Background()
	const rounds = 60

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	write := func(fn func(i int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				fn(i)
			}
		}()
	}

	var live []*Session // the session writer's own
	write(func(i int) {
		src, dst := int32((i*3)%12), int32(11-(i*5)%4)
		if s, err := f.Setup(ctx, src, dst, 1, routing.Options{}); err == nil {
			if s.Epoch != 1 || s.Stitched == nil || s.Stitched.Nodes[0] != src {
				t.Errorf("Setup returned %+v", s)
			}
			live = append(live, s)
		}
		if len(live) > 3 {
			_ = f.Teardown(ctx, live[0]) // refused if a heal aborted it since
			live = live[1:]
		}
	})
	write(func(i int) {
		f.Beat(ctx)
		if i%10 == 9 {
			f.Heal(ctx)
		}
	})
	write(func(i int) {
		switch i % 20 {
		case 7:
			f.CrashRegion(1)
		case 13:
			f.RecoverRegion(1)
		}
	})

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				src, dst := int32((i+r)%12), int32((i*7+r)%12)
				sp, err := f.StitchPath(ctx, src, dst, routing.Options{})
				switch {
				case err == nil:
					if sp.Nodes[0] != src || sp.Nodes[len(sp.Nodes)-1] != dst {
						t.Errorf("stitch %d->%d answered %v", src, dst, sp.Nodes)
					}
				case errors.Is(err, ErrNoRoute), errors.Is(err, queryplane.ErrShed):
				default:
					t.Errorf("stitch %d->%d: %v", src, dst, err)
				}
				st := f.Stats()
				if st.Commits > st.Setups {
					t.Errorf("stats %+v: more commits than setups", st)
				}
				for _, s := range f.Sessions() {
					if got := f.Session(s.ID); got != nil && (got.ID != s.ID || got.Epoch < s.Epoch || got.Stitched == nil) {
						t.Errorf("Session(%d) = %+v, listed as %+v", s.ID, got, s)
					}
				}
				f.RegionCrashed(1)
				f.PeerDigest(0, 1)
				f.PeerBorderDown(0, 1, src)
			}
		}(r)
	}

	writers.Wait()
	close(done)
	readers.Wait()

	f.RecoverRegion(1)
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// What is still standing is committed in every region it crosses, and
	// tears down cleanly through the records the fabric hands out, which
	// stay as they were handed out.
	for _, s := range f.Sessions() {
		before := *s
		if err := f.Teardown(ctx, s); err != nil {
			t.Fatalf("teardown of standing session %d: %v", s.ID, err)
		}
		if *s != before {
			t.Fatalf("teardown wrote through the record it was handed: %+v, was %+v", s, before)
		}
	}
	if n := len(f.Sessions()); n != 0 {
		t.Fatalf("%d sessions still standing after every teardown", n)
	}
	if err := f.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// PeerDigest returns region r's gossip-fed view of peer region q (nil when
// no digest has arrived yet).
func (f *Fabric) PeerDigest(r, q int) (epoch uint32, conn float64, lastSeen int, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	d := f.regions[r].peers[q]
	if d == nil {
		return 0, 0, 0, false
	}
	return d.Epoch, d.Conn, d.LastSeen, true
}

// PeerBorderDown reports whether region r has heard (via gossip) that
// border broker b is down in peer region q.
func (f *Fabric) PeerBorderDown(r, q int, b int32) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	d := f.regions[r].peers[q]
	return d != nil && d.borderDown[b]
}
