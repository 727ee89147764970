package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"brokerset/internal/churn"
	"brokerset/internal/workload"
)

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestChurnSelfHealingUnderLoad is the end-to-end acceptance test (run it
// with -race): while concurrent clients hammer /path, a /churn burst kills
// a broker and drops links on live session paths. The healer must restore
// the connectivity target with a coalition that excludes the dead broker,
// re-path or cleanly abort every damaged session without leaking capacity
// ledger reservations, and post-heal paths must be dominated by the new
// coalition.
func TestChurnSelfHealingUnderLoad(t *testing.T) {
	srv, ts := testServer(t)
	n := srv.top.NumNodes()

	// Establish sessions so the churn has something to damage.
	var sessions []sessionResponse
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60 && len(sessions) < 12; i++ {
		req := sessionRequest{Src: rng.Intn(n), Dst: rng.Intn(n), Gbps: 0.2 + rng.Float64()}
		if req.Src == req.Dst {
			continue
		}
		var sess sessionResponse
		if code := postJSON(t, ts.URL+"/sessions", req, &sess); code == http.StatusCreated {
			sessions = append(sessions, sess)
		}
	}
	if len(sessions) < 5 {
		t.Fatalf("only %d sessions established", len(sessions))
	}

	// Concurrent query load for the whole churn-and-heal window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := r.Intn(n), r.Intn(n)
				resp, err := http.Get(fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst))
				if err != nil {
					failures.Add(1)
					continue
				}
				resp.Body.Close()
				queries.Add(1)
			}
		}(int64(w) + 100)
	}

	// Damage: kill a broker that appears on a session path, and cut the
	// first hop of a few sessions.
	var brokers []brokerInfo
	if code := getJSON(t, ts.URL+"/brokers", &brokers); code != http.StatusOK {
		t.Fatalf("brokers status %d", code)
	}
	isBroker := make(map[int32]bool, len(brokers))
	for _, b := range brokers {
		isBroker[b.ID] = true
	}
	var dead int32 = -1
	for _, s := range sessions {
		for _, u := range s.Nodes {
			if isBroker[u] {
				dead = u
				break
			}
		}
		if dead >= 0 {
			break
		}
	}
	if dead < 0 {
		t.Fatal("no session path touches a broker")
	}
	events := []churn.Event{{Type: churn.BrokerFail, Node: dead}}
	for _, s := range sessions[:3] {
		events = append(events, churn.Event{Type: churn.LinkFail, U: s.Nodes[0], V: s.Nodes[1]})
	}

	// Warm a known pair so its re-query after the churn is a provable
	// invalidation-caused miss (the concurrent load alone is too racy to
	// guarantee one in the window).
	warm := sessions[0]
	warmURL := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL,
		warm.Nodes[0], warm.Nodes[len(warm.Nodes)-1])
	if code := getJSON(t, warmURL, nil); code != http.StatusOK {
		t.Fatalf("warm query status %d", code)
	}

	var cres ChurnResult
	if code := postJSON(t, ts.URL+"/churn", churnRequest{Events: events}, &cres); code != http.StatusOK {
		t.Fatalf("churn status %d", code)
	}
	if cres.Applied != len(events) || !cres.Blast.BrokerPlane {
		t.Fatalf("churn response = %+v", cres)
	}
	if cres.Heal == nil {
		t.Fatal("no heal report")
	}
	if !cres.Heal.TargetMet {
		t.Fatalf("healer missed its target: %+v", cres.Heal)
	}
	if got := cres.Heal.SessionsRepaired + cres.Heal.SessionsAborted; got != cres.Heal.SessionsChecked {
		t.Fatalf("session accounting: %+v", cres.Heal)
	}

	// Re-query the warmed pair: its cached entry was staled by the churn,
	// so the lookup counts an invalidation miss whether or not a dominated
	// path still exists (404 is acceptable — the damage may have cut it).
	if code := getJSON(t, warmURL, nil); code != http.StatusOK && code != http.StatusNotFound {
		t.Fatalf("post-churn warm query status %d", code)
	}

	close(stop)
	wg.Wait()
	if queries.Load() == 0 || failures.Load() > 0 {
		t.Fatalf("load: %d queries, %d transport failures", queries.Load(), failures.Load())
	}

	// The dead broker is out of the coalition.
	if code := getJSON(t, ts.URL+"/brokers", &brokers); code != http.StatusOK {
		t.Fatalf("brokers status %d", code)
	}
	inB := make(map[int32]bool, len(brokers))
	for _, b := range brokers {
		if b.ID == dead {
			t.Fatalf("failed broker %d still listed", dead)
		}
		inB[b.ID] = true
	}

	// Post-heal paths: every hop dominated by the live coalition (which
	// excludes the dead broker) and no hop over a downed link.
	downed := make(map[[2]int32]bool)
	for _, ev := range events[1:] {
		u, v := ev.U, ev.V
		if u > v {
			u, v = v, u
		}
		downed[[2]int32{u, v}] = true
	}
	checked := 0
	for i := 0; i < 200 && checked < 40; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		var p pathResponse
		url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)
		if code := getJSON(t, url, &p); code != http.StatusOK {
			continue // disconnected pair
		}
		checked++
		for h := 0; h+1 < len(p.Nodes); h++ {
			u, v := p.Nodes[h], p.Nodes[h+1]
			if !inB[u] && !inB[v] {
				t.Fatalf("post-heal path hop (%d,%d) not dominated by live coalition: %v", u, v, p.Nodes)
			}
			if u > v {
				u, v = v, u
			}
			if downed[[2]int32{u, v}] {
				t.Fatalf("post-heal path uses downed link (%d,%d): %v", u, v, p.Nodes)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no post-heal path verified")
	}

	// Surviving sessions are committed on live paths; tear everything down
	// and verify the capacity ledger balances exactly — no leaked holds.
	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/sessions", &list); code != http.StatusOK {
		t.Fatalf("sessions status %d", code)
	}
	for _, s := range list {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, s.ID), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("teardown of session %d: status %d", s.ID, resp.StatusCode)
		}
	}
	m := srv.metrics
	srv.top.Graph.Edges(func(u, v int) bool {
		if got, want := m.Residual(int32(u), int32(v)), m.Capacity(int32(u), int32(v)); got != want {
			t.Fatalf("leaked reservation on (%d,%d): residual %f, capacity %f", u, v, got, want)
		}
		return true
	})

	// Healer metrics surfaced through /metrics.
	mr, err := workload.FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mr["healer_heal_passes_total"] == 0 || mr["healer_events_applied_total"] < float64(len(events)) {
		t.Fatalf("healer metrics = %v", mr)
	}
	if mr["queryplane_misses_cold_total"]+mr["queryplane_misses_invalidated_total"] != mr["queryplane_misses_total"] {
		t.Fatalf("miss split does not sum: %v", mr)
	}
	if mr["queryplane_misses_invalidated_total"] == 0 {
		t.Fatal("churn under load caused no invalidation misses")
	}
}

// POST /churn input validation and heal:false behaviour.
func TestChurnEndpointValidation(t *testing.T) {
	srv, ts := testServer(t)

	// Bad JSON.
	resp, err := http.Post(ts.URL+"/churn", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
	// Wrong method.
	r2, err := http.Get(ts.URL + "/churn")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /churn status %d", r2.StatusCode)
	}
	// Out-of-range generate.
	if code := postJSON(t, ts.URL+"/churn", map[string]int{"generate": -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("generate -1 status %d", code)
	}
	// Invalid event rejected.
	bad := churnRequest{Events: []churn.Event{{Type: churn.LinkFail, U: 0, V: 0}}}
	if code := postJSON(t, ts.URL+"/churn", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid event status %d", code)
	}

	// heal:false applies damage without a heal pass.
	noHeal := false
	var brokers []brokerInfo
	if code := getJSON(t, ts.URL+"/brokers", &brokers); code != http.StatusOK {
		t.Fatal("brokers fetch failed")
	}
	req := churnRequest{
		Events: []churn.Event{{Type: churn.BrokerFail, Node: brokers[0].ID}},
		Heal:   &noHeal,
	}
	var cres ChurnResult
	if code := postJSON(t, ts.URL+"/churn", req, &cres); code != http.StatusOK {
		t.Fatalf("heal:false churn status %d", code)
	}
	if cres.Heal != nil {
		t.Fatalf("heal report despite heal:false: %+v", cres.Heal)
	}
	// Generated churn through the seeded generator, healed.
	var gres ChurnResult
	if code := postJSON(t, ts.URL+"/churn", map[string]int{"generate": 5}, &gres); code != http.StatusOK {
		t.Fatalf("generate churn status %d", code)
	}
	if gres.Applied != 5 || len(gres.Events) != 5 || gres.Heal == nil {
		t.Fatalf("generated churn response = %+v", gres)
	}
	_ = srv
}

// The -churn background loop draws, applies, and heals on its own timer.
func TestBackgroundChurnLoop(t *testing.T) {
	srv, ts := testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, Churn: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Run(ctx)
	}()
	deadline := time.After(5 * time.Second)
	for srv.healer.Metrics.HealPasses.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no heal pass within 5s of background churn")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	<-done
	// The coalition still answers queries after background churn.
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Connectivity <= 0 {
		t.Fatalf("connectivity %f after background churn", stats.Connectivity)
	}
}
