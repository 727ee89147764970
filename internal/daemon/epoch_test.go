package daemon

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"brokerset/internal/churn"
	"brokerset/internal/ctrlplane"
	"brokerset/internal/routing"
)

// stormLinks returns two endpoint-disjoint links for atomic pair-toggling.
func stormLinks(srv *Daemon, t *testing.T) [2][2]int32 {
	t.Helper()
	var links [][2]int32
	lastU := -1
	srv.top.Graph.Edges(func(u, v int) bool {
		if u != lastU { // one link per source node, for endpoint diversity
			links = append(links, [2]int32{int32(u), int32(v)})
			lastU = u
		}
		return len(links) < 64
	})
	for i, a := range links {
		for _, b := range links[i+1:] {
			if b[0] != a[0] && b[0] != a[1] && b[1] != a[0] && b[1] != a[1] {
				return [2][2]int32{a, b}
			}
		}
	}
	t.Fatal("no endpoint-disjoint link pair")
	return [2][2]int32{}
}

// TestSnapshotConsistencyUnderChurnStorm is the torn-view property test:
// a storm fails and recovers two links together in single atomic batches
// while readers pin snapshots with no locks. Every pinned snapshot must be
// internally consistent — the paired links always agree (a reader never
// observes the state half-way through a batch), a down-mark always reads as
// no available capacity, and epochs observed by one reader
// never go backwards. Run with -race this also proves publication is a
// proper happens-before edge for all snapshot contents.
func TestSnapshotConsistencyUnderChurnStorm(t *testing.T) {
	srv, _ := testServer(t)
	pair := stormLinks(srv, t)
	ctx := context.Background()

	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			typ := churn.LinkFail
			if i%2 == 1 {
				typ = churn.LinkRecover
			}
			events := []churn.Event{
				{Type: typ, U: pair[0][0], V: pair[0][1]},
				{Type: typ, U: pair[1][0], V: pair[1][1]},
			}
			if _, _, err := srv.churnAndHeal(ctx, events, false); err != nil {
				t.Errorf("churn batch: %v", err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for i := 0; i < 2000; i++ {
				snap := srv.pub.Current()
				if snap.ID() < last {
					t.Errorf("epoch went backwards: %d after %d", snap.ID(), last)
					return
				}
				last = snap.ID()
				view := snap.View()
				d0 := view.Failed(pair[0][0], pair[0][1])
				d1 := view.Failed(pair[1][0], pair[1][1])
				if d0 != d1 {
					t.Errorf("torn snapshot %d: link0 down=%v, link1 down=%v", snap.ID(), d0, d1)
					return
				}
				// What a path over the link reads must be the down-mark:
				// nothing available exactly when it is down.
				if avail := view.Available(pair[0][0], pair[0][1]); (avail == 0) != d0 {
					t.Errorf("snapshot %d: down-mark %v but %v Gbps available", snap.ID(), d0, avail)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	storm.Wait()
}

// slowTransport holds every control-plane message until release is closed,
// parking the 2PC critical section that runs under the server's write mutex;
// its first message closes sending.
type slowTransport struct {
	ctrlplane.Transport
	once             sync.Once
	sending, release chan struct{}
}

func (t *slowTransport) Send(m ctrlplane.Message) {
	t.once.Do(func() { close(t.sending) })
	<-t.release
	t.Transport.Send(m)
}

// TestSetupDoesNotBlockQueries is the regression test for the epoch
// refactor's central claim: a session setup parked in its 2PC holds the
// write mutex, and path queries must keep being served from the pinned
// snapshot the whole time. Under the old global RWMutex the queries below
// would stall until the setup finished and blow their deadlines.
func TestSetupDoesNotBlockQueries(t *testing.T) {
	srv, _ := testServer(t)
	tr := &slowTransport{
		Transport: ctrlplane.NewFaultTransport(ctrlplane.FaultConfig{}),
		sending:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	srv.plane.UseTransport(tr)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	done := make(chan error, 1)
	go func() {
		_, err := srv.Setup(context.Background(), src, dst, 0.01)
		done <- err
	}()
	select {
	case <-tr.sending:
	case err := <-done:
		t.Fatalf("setup finished without sending a message: %v", err)
	}
	if srv.writeMu.TryLock() {
		t.Fatal("setup is sending its 2PC without holding the write mutex")
	}
	for _, b := range bs[1:] {
		qctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, _, err := srv.qp.Query(qctx, src, int(b), routing.Options{})
		cancel()
		// The setup's own pair has a path (the setup found it), so only
		// the other pairs may answer no-path.
		if err != nil && (int(b) == dst || !errors.Is(err, routing.ErrNoPath)) {
			t.Fatalf("query %d->%d failed while setup held the write mutex: %v", src, b, err)
		}
	}
	close(tr.release)
	if err := <-done; err != nil {
		t.Fatalf("setup: %v", err)
	}
}

// TestQueryRevalidationAcrossEpochs asserts the cache's snapshot
// revalidation: after a churn event that does not touch a cached path,
// the next identical query is served by re-stamping the entry (a hit),
// not by a recompute; after an event that breaks a hop of the path, the
// entry is recomputed.
func TestQueryRevalidationAcrossEpochs(t *testing.T) {
	srv, _ := testServer(t)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])
	ctx := context.Background()

	p, cached, err := srv.qp.Query(ctx, src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query cannot be a hit")
	}

	// Fail a link that is on neither endpoint of the cached path.
	offPath := func() (int32, int32) {
		on := map[[2]int32]bool{}
		for i := 0; i+1 < len(p.Nodes); i++ {
			u, v := p.Nodes[i], p.Nodes[i+1]
			on[[2]int32{u, v}] = true
			on[[2]int32{v, u}] = true
		}
		var fu, fv int32 = -1, -1
		srv.top.Graph.Edges(func(u, v int) bool {
			if !on[[2]int32{int32(u), int32(v)}] {
				fu, fv = int32(u), int32(v)
				return false
			}
			return true
		})
		if fu < 0 {
			t.Fatal("no off-path link")
		}
		return fu, fv
	}
	fu, fv := offPath()
	epochBefore := srv.pub.Epoch()
	if _, _, err := srv.churnAndHeal(ctx, []churn.Event{{Type: churn.LinkFail, U: fu, V: fv}}, false); err != nil {
		t.Fatal(err)
	}
	if srv.pub.Epoch() == epochBefore {
		t.Fatal("churn did not publish a new epoch")
	}

	p2, cached, err := srv.qp.Query(ctx, src, dst, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("off-path churn should leave the entry revalidatable (hit)")
	}
	if srv.qp.Stats().HitsRevalidated != 1 {
		t.Fatalf("hits_revalidated = %d, want 1", srv.qp.Stats().HitsRevalidated)
	}

	// Now break a hop of the cached path itself: next query must recompute
	// and the result must avoid the dead link.
	u, v := p2.Nodes[0], p2.Nodes[1]
	if _, _, err := srv.churnAndHeal(ctx, []churn.Event{{Type: churn.LinkFail, U: u, V: v}}, false); err != nil {
		t.Fatal(err)
	}
	p3, cached, err := srv.qp.Query(ctx, src, dst, routing.Options{})
	if err == nil {
		if cached {
			t.Fatal("broken-path entry served from cache")
		}
		for i := 0; i+1 < len(p3.Nodes); i++ {
			if (p3.Nodes[i] == u && p3.Nodes[i+1] == v) || (p3.Nodes[i] == v && p3.Nodes[i+1] == u) {
				t.Fatalf("recomputed path crosses failed link (%d,%d): %v", u, v, p3.Nodes)
			}
		}
	}
	// err != nil is fine too: the failed link may have been the only route.
}
