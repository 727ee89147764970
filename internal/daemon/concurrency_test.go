package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/churn"
	"brokerset/internal/routing"
	"brokerset/internal/workload"
)

// minAvailable returns the bottleneck residual capacity of a node path as
// the serving side currently sees it: the current epoch snapshot's view.
func minAvailable(srv *Daemon, nodes []int32) float64 {
	view := srv.pub.Current().View()
	min := -1.0
	for i := 0; i+1 < len(nodes); i++ {
		if a := view.Available(nodes[i], nodes[i+1]); min < 0 || a < min {
			min = a
		}
	}
	return min
}

// TestPathCacheInvalidatedByReservation is the cache-consistency contract:
// once a committed session drops a link's residual bandwidth below a
// query's minbw, the (previously cached) path must not be served again.
func TestPathCacheInvalidatedByReservation(t *testing.T) {
	srv, ts := testServer(t)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	// Prime the cache with the unconstrained best path.
	var p pathResponse
	if code := getJSON(t, fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst), &p); code != http.StatusOK {
		t.Fatalf("path status %d", code)
	}
	bottleneck := minAvailable(srv, p.Nodes)
	if bottleneck <= 0 {
		t.Fatalf("bottleneck = %f", bottleneck)
	}

	// Cache the constrained variant: minbw just below the bottleneck.
	minbw := 0.9 * bottleneck
	constrained := fmt.Sprintf("%s/path?src=%d&dst=%d&minbw=%f", ts.URL, src, dst, minbw)
	var cp pathResponse
	if code := getJSON(t, constrained, &cp); code != http.StatusOK {
		t.Fatalf("constrained path status %d", code)
	}

	// Reserve half the bottleneck on the same pair: residual on the best
	// path drops to 0.5×bottleneck < minbw.
	body, _ := json.Marshal(sessionRequest{Src: src, Dst: dst, Gbps: 0.5 * bottleneck})
	resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session status %d", resp.StatusCode)
	}

	// The constrained query must now either find a genuinely feasible
	// alternative or return 404 — never the stale cached path.
	var fresh pathResponse
	code := getJSON(t, constrained, &fresh)
	switch code {
	case http.StatusOK:
		if got := minAvailable(srv, fresh.Nodes); got < minbw {
			t.Fatalf("stale path served: residual %f < minbw %f (nodes %v)", got, minbw, fresh.Nodes)
		}
	case http.StatusNotFound:
		// Fine: no dominated path satisfies the constraint any more.
	default:
		t.Fatalf("constrained path status %d after reservation", code)
	}
}

// TestConcurrentPathAndSessionTraffic hammers /path and session
// setup/teardown in parallel; with -race this exercises the RWMutex
// ordering between the query plane's readers and control-plane writers,
// and every 200 response must satisfy its own minbw constraint.
func TestConcurrentPathAndSessionTraffic(t *testing.T) {
	srv, ts := testServer(t)
	n := srv.top.NumNodes()
	brokers := srv.currentBrokers()

	var wg sync.WaitGroup
	const (
		pathWorkers    = 4
		sessionWorkers = 2
		iters          = 40
	)
	for w := 0; w < pathWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < iters; i++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				minbw := rng.Float64() * 2
				url := fmt.Sprintf("%s/path?src=%d&dst=%d&minbw=%f", ts.URL, src, dst, minbw)
				var p pathResponse
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET /path: %v", err)
					return
				}
				code := resp.StatusCode
				if code == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
						t.Errorf("decode: %v", err)
					}
				}
				resp.Body.Close()
				switch code {
				case http.StatusOK, http.StatusNotFound, http.StatusTooManyRequests:
				default:
					t.Errorf("GET /path status %d", code)
				}
			}
		}(w)
	}
	for w := 0; w < sessionWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 900))
			for i := 0; i < iters; i++ {
				src := int(brokers[rng.Intn(len(brokers))])
				dst := int(brokers[rng.Intn(len(brokers))])
				if src == dst {
					continue
				}
				body, _ := json.Marshal(sessionRequest{Src: src, Dst: dst, Gbps: 0.05})
				resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST /sessions: %v", err)
					return
				}
				var sess sessionResponse
				created := resp.StatusCode == http.StatusCreated
				if created {
					if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
						t.Errorf("decode session: %v", err)
					}
				}
				resp.Body.Close()
				if created && rng.Float64() < 0.7 {
					req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, sess.ID), nil)
					dresp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Errorf("DELETE: %v", err)
						return
					}
					dresp.Body.Close()
					if dresp.StatusCode != http.StatusOK {
						t.Errorf("DELETE status %d", dresp.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every session the store still holds must be committed and listable.
	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/sessions", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list) != srv.sessions.Len() {
		t.Fatalf("list len %d vs store len %d", len(list), srv.sessions.Len())
	}
	// Query-plane accounting stayed coherent under concurrency.
	st := srv.qp.Stats()
	if st.Queries == 0 || st.Queries != st.Hits+st.Misses {
		t.Fatalf("queryplane counters: %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[1])
	url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)

	// miss, then hit.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q", got)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q", got)
	}

	m, err := workload.FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m["queryplane_queries_total"] != 2 || m["queryplane_hits_total"] != 1 || m["queryplane_misses_total"] != 1 {
		t.Fatalf("metrics = %v", m)
	}
	// Wrong method.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/metrics", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d", r.StatusCode)
	}
}

// TestSessionReadsVsHealRace reads the session table over HTTP while heals
// re-path the very sessions being read: each round fails the first link of
// every live session, so Plane.Repath moves each one to a new record that the
// healer puts in the table under writeMu, and releases the old one. The
// handlers take no lock; run under -race this proves what they read of a
// record — its id, path and bandwidth — is never written once the record is
// handed out.
func TestSessionReadsVsHealRace(t *testing.T) {
	srv, _ := testServerWith(t, 0.02, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024})
	h := srv.Handler()
	ctx := context.Background()
	bs := srv.currentBrokers()
	for i := 0; i+1 < len(bs); i += 2 {
		if _, err := srv.Setup(ctx, int(bs[i]), int(bs[i+1]), 0.01); err != nil {
			t.Fatalf("setup %d->%d: %v", bs[i], bs[i+1], err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sessions", nil))
			var list []sessionResponse
			if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
				t.Errorf("GET /sessions: %v", err)
				return
			}
			for _, s := range list {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, fmt.Sprintf("/sessions/%d", s.ID), nil))
			}
		}
	}()

	repaired := 0
	for round := 0; round < 20; round++ {
		var fail, recover []churn.Event
		for _, s := range srv.Sessions() {
			fail = append(fail, churn.Event{Type: churn.LinkFail, U: s.Path[0], V: s.Path[1]})
			recover = append(recover, churn.Event{Type: churn.LinkRecover, U: s.Path[0], V: s.Path[1]})
		}
		res, err := srv.Churn(ctx, fail, 0, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		repaired += res.Heal.SessionsRepaired
		if _, err := srv.Churn(ctx, recover, 0, false); err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if repaired == 0 {
		t.Fatal("no session was re-pathed: the race was never exercised")
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTeardownAndRenewVsHealRace races teardowns and renewals by id against
// heal rounds that re-path the very sessions they name, failing a link on
// every live session each round as TestSessionReadsVsHealRace does. A heal
// replaces a session's record, so an id resolved outside writeMu can name a
// superseded one: a teardown would then release nothing while the healer puts
// the re-pathed record back in the table, and a renewal would miss a live
// session. Every lookup happens in the batch leader or in Renew under
// writeMu, so: each torn-down id leaves the table and is released exactly
// once, no renewal of a live session misses, and the plane's conservation
// invariants hold against the table.
func TestTeardownAndRenewVsHealRace(t *testing.T) {
	srv, _ := testServerWith(t, 0.02, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: time.Hour})
	ctx := context.Background()
	bs := srv.currentBrokers()
	var tear, renew []int
	for i := 0; i < len(bs); i++ {
		for j := i + 1; j < len(bs); j += 4 {
			sess, err := srv.Setup(ctx, int(bs[i]), int(bs[j]), 0.01)
			if err != nil {
				continue
			}
			if len(tear) <= len(renew) {
				tear = append(tear, sess.ID)
			} else {
				renew = append(renew, sess.ID)
			}
		}
	}
	if len(tear) < 10 || len(renew) < 10 {
		t.Fatalf("only %d+%d sessions established", len(tear), len(renew))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // renewers: every kept session, round after round
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, id := range renew {
					select {
					case <-stop:
						return
					default:
					}
					// A heal may abort a session it cannot re-path; an id it
					// took out of the table stays out, so a miss on an id the
					// table still holds missed a live session.
					if !srv.Renew(id) {
						if _, live := srv.Session(id); live {
							t.Errorf("renewal of live session %d missed", id)
						}
					}
					runtime.Gosched()
				}
			}
		}()
	}
	var (
		torn      atomic.Int64
		healsDone atomic.Bool
	)
	tearIDs := make(chan int, len(tear))
	for _, id := range tear {
		tearIDs <- id
	}
	close(tearIDs)
	for w := 0; w < 4; w++ { // tearers: strike while a heal is re-pathing
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := srv.healer.Metrics.SessionsRepaired.Load()
			for id := range tearIDs {
				// Wait until a heal has re-pathed a session since our last
				// teardown: its sweep is under way, and the ids after that
				// session's are still to come.
				for srv.healer.Metrics.SessionsRepaired.Load() == seen && !healsDone.Load() {
					runtime.Gosched()
				}
				seen = srv.healer.Metrics.SessionsRepaired.Load()
				switch err := srv.Teardown(ctx, id); {
				case err == nil:
					torn.Add(1)
				case !errors.Is(err, errNoSession): // errNoSession: a heal aborted it first
					t.Errorf("teardown of session %d: %v", id, err)
				}
			}
		}()
	}

	repaired := 0
	for round := 0; round < 20; round++ {
		var fail, recover []churn.Event
		for _, s := range srv.Sessions() {
			fail = append(fail, churn.Event{Type: churn.LinkFail, U: s.Path[0], V: s.Path[1]})
			recover = append(recover, churn.Event{Type: churn.LinkRecover, U: s.Path[0], V: s.Path[1]})
		}
		res, err := srv.Churn(ctx, fail, 0, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		repaired += res.Heal.SessionsRepaired
		if _, err := srv.Churn(ctx, recover, 0, false); err != nil {
			t.Fatalf("round %d recover: %v", round, err)
		}
	}
	healsDone.Store(true)
	close(stop)
	wg.Wait()
	if repaired == 0 {
		t.Fatal("no session was re-pathed: the race was never exercised")
	}
	for _, id := range tear {
		if sess, ok := srv.Session(id); ok {
			t.Errorf("torn-down session %d still in the table as %+v", id, sess)
		}
	}
	if st := srv.PlaneStats(); int64(st.Teardowns) != torn.Load() {
		t.Errorf("%d teardowns answered, the plane released %d", torn.Load(), st.Teardowns)
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedTeardownFreesNoPathSetup: a setup refused for capacity at its
// pinned snapshot, committed in one round with the teardown that frees its
// path, is admitted. The round moved the plane before it published, so the
// pin's no-path answer is stale even at an unchanged epoch, and the live
// search decides.
func TestBatchedTeardownFreesNoPathSetup(t *testing.T) {
	srv, _ := testServer(t)
	ctx := context.Background()
	n := srv.top.NumNodes()
	for src := 0; src < n; src++ {
		dst := n - 1 - src
		best, err := srv.pub.Current().BestPath(src, dst, routing.Options{})
		if err != nil || best.Hops() < 1 {
			continue
		}
		// Fill the widest path's bottleneck: then no path has that much.
		gbps := best.Bottleneck
		held, err := srv.Setup(ctx, src, dst, gbps)
		if err != nil {
			continue
		}
		_, _, noPath := srv.qp.Resolve(ctx, src, dst, routing.Options{}.Reserving(gbps))
		if !errors.Is(noPath, routing.ErrNoPath) {
			if err := srv.Teardown(ctx, held.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		down := &pendingOp{teardown: true, id: held.ID, done: make(chan struct{})}
		up := &pendingOp{req: sessionRequest{Src: src, Dst: dst, Gbps: gbps}, noPath: noPath,
			snapID: srv.pub.Epoch(), done: make(chan struct{})}
		srv.writeMu.Lock()
		srv.commit.processBatch(ctx, []*pendingOp{down, up})
		srv.writeMu.Unlock()
		if down.err != nil || up.err != nil {
			t.Fatalf("%d -> %d at %.3f Gbps batched with the teardown that frees it: teardown %v, setup %v",
				src, dst, gbps, down.err, up.err)
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no pair whose reservation leaves no path for a second one")
}
