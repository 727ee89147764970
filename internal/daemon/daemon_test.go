package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

// testServer boots the default test daemon: 20 brokers on the 0.01-scale
// topology, brokerd's default setup queue, every optional plane off.
func testServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	return testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024})
}

// testServerWith boots a daemon with cfg on the seed-1 topology at scale
// and serves its Handler.
func testServerWith(t *testing.T, scale float64, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// currentBrokers returns a copy of the current snapshot's coalition
// membership.
func (s *Daemon) currentBrokers() []int32 {
	return append([]int32(nil), s.pub.Current().Brokers()...)
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
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

func TestHealthAndStats(t *testing.T) {
	srv, ts := testServer(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Nodes != srv.top.NumNodes() || stats.Brokers != len(srv.currentBrokers()) {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Connectivity <= 0 || stats.Connectivity > 1 {
		t.Fatalf("connectivity = %f", stats.Connectivity)
	}
}

func TestBrokersEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	var brokers []brokerInfo
	if code := getJSON(t, ts.URL+"/brokers", &brokers); code != http.StatusOK {
		t.Fatalf("brokers status %d", code)
	}
	if want := len(srv.currentBrokers()); len(brokers) != want {
		t.Fatalf("got %d brokers, want %d", len(brokers), want)
	}
	if brokers[0].Name == "" || brokers[0].Class == "" {
		t.Fatalf("broker info incomplete: %+v", brokers[0])
	}
}

func TestPathEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])
	var p pathResponse
	url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)
	if code := getJSON(t, url, &p); code != http.StatusOK {
		t.Fatalf("path status %d", code)
	}
	if p.Hops < 1 || len(p.Nodes) != p.Hops+1 || len(p.Names) != len(p.Nodes) {
		t.Fatalf("path = %+v", p)
	}
	if p.LatencyMs <= 0 {
		t.Fatalf("latency = %f", p.LatencyMs)
	}
	// Constrained query.
	url = fmt.Sprintf("%s/path?src=%d&dst=%d&maxhops=%d&minbw=0.1", ts.URL, src, dst, p.Hops)
	if code := getJSON(t, url, nil); code != http.StatusOK {
		t.Fatalf("constrained path status %d", code)
	}
	// Bad requests.
	for _, bad := range []string{
		"/path?src=abc&dst=1",
		"/path?src=0&dst=999999",
		"/path?src=0&dst=1&maxhops=0",
		"/path?src=0&dst=1&minbw=-2",
	} {
		if code := getJSON(t, ts.URL+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s status %d, want 400", bad, code)
		}
	}
}

// requirePathOptionsSafe drives one path endpoint with the two outside inputs
// that used to corrupt the cache behind it. A non-finite minbw made a key that
// never equals itself, so every repeat missed and left one more unreachable
// entry: it must be a 400. A maxhops past int32 was truncated in the key and
// answered from a small bound's entry: on a linked pair whose best path is
// not the direct link, maxhops=1 answers the link and maxhops=2^32+1 — asked
// after it, so the 1-hop entry is there to alias — must answer the unbounded
// optimum.
func requirePathOptionsSafe(t *testing.T, srv *Daemon, endpoint string) {
	t.Helper()
	for _, bw := range []string{"NaN", "nan", "Inf", "%2BInf"} {
		if code := getJSON(t, endpoint+"?src=0&dst=1&minbw="+bw, nil); code != http.StatusBadRequest {
			t.Errorf("minbw=%s status %d, want 400", bw, code)
		}
	}
	type answer struct {
		Hops      int     `json:"hops"`
		LatencyMs float64 `json:"latency_ms"`
	}
	checked := false
	srv.top.Graph.Edges(func(u, v int) bool {
		url := fmt.Sprintf("%s?src=%d&dst=%d", endpoint, u, v)
		var free, direct, huge answer
		if getJSON(t, url, &free) != http.StatusOK || free.Hops < 2 {
			return true
		}
		// The link itself may be undominated (404) or, federated, span two
		// regions (the bound is per segment): such a pair proves nothing.
		if getJSON(t, url+"&maxhops=1", &direct) != http.StatusOK || direct.Hops != 1 {
			return true
		}
		if direct.LatencyMs <= free.LatencyMs {
			t.Fatalf("(%d,%d) maxhops=1 answers %+v, no dearer than the unbounded %+v", u, v, direct, free)
		}
		if code := getJSON(t, url+"&maxhops=4294967297", &huge); code != http.StatusOK || huge != free {
			t.Fatalf("(%d,%d) maxhops=4294967297: status %d, %+v; unbounded %+v", u, v, code, huge, free)
		}
		checked = true
		return false
	})
	if !checked {
		t.Fatal("no linked pair with a multi-hop best path: nothing was checked")
	}
}

func TestPathOptionsCannotCorruptCache(t *testing.T) {
	srv, ts := testServer(t)
	requirePathOptionsSafe(t, srv, ts.URL+"/path")
	// The NaN requests were refused before the query plane saw them and the
	// huge bound shared the unbounded query's entry, so nothing is cached
	// that a miss did not put there.
	m, err := workload.FetchServerStats(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["queryplane_cache_entries"]; got > m["queryplane_misses_total"] {
		t.Fatalf("%v cache entries from %v misses", got, m["queryplane_misses_total"])
	}
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts := testServer(t)
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	body, _ := json.Marshal(sessionRequest{Src: src, Dst: dst, Gbps: 0.5})
	resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sess sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if sess.ID == 0 || sess.Hops < 1 {
		t.Fatalf("session = %+v", sess)
	}

	// Listed and fetchable.
	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/sessions", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list status %d len %d", code, len(list))
	}
	if code := getJSON(t, fmt.Sprintf("%s/sessions/%d", ts.URL, sess.ID), nil); code != http.StatusOK {
		t.Fatalf("get session status %d", code)
	}

	// Teardown.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, sess.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	// Gone now.
	if code := getJSON(t, fmt.Sprintf("%s/sessions/%d", ts.URL, sess.ID), nil); code != http.StatusNotFound {
		t.Fatalf("get deleted session status %d", code)
	}
	dresp2, _ := http.DefaultClient.Do(req)
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d", dresp2.StatusCode)
	}
}

func TestSessionErrors(t *testing.T) {
	_, ts := testServer(t)
	// Bad JSON.
	resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
	// Out-of-range endpoint.
	body, _ := json.Marshal(sessionRequest{Src: -1, Dst: 2, Gbps: 1})
	resp, err = http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oob status %d", resp.StatusCode)
	}
	// Zero bandwidth -> setup rejected.
	body, _ = json.Marshal(sessionRequest{Src: 0, Dst: 1, Gbps: 0})
	resp, err = http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("zero bw status %d", resp.StatusCode)
	}
	// Bad session id.
	if code := getJSON(t, ts.URL+"/sessions/notanumber", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", code)
	}
	// Wrong methods.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/stats", nil)
	r, _ := http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /stats status %d", r.StatusCode)
	}
	// The 405 is the mux's: it names what the path does take.
	if got := r.Header.Get("Allow"); got != "GET, HEAD" {
		t.Fatalf("PUT /stats Allow = %q", got)
	}
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/sessions/1/renew", nil)
	r, _ = http.DefaultClient.Do(req)
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed || r.Header.Get("Allow") != "POST" {
		t.Fatalf("PUT /sessions/1/renew: status %d, Allow %q", r.StatusCode, r.Header.Get("Allow"))
	}
}

// A flat setup must route around a best path that lacks the bandwidth: the
// cached minimum-latency path's bottleneck being below the request is not
// "no path" while a detour with the bandwidth exists. 409 is for pairs where
// no dominated path has it.
func TestSetupDetoursAroundThinBestPath(t *testing.T) {
	srv, ts := testServer(t)
	post := func(src, dst int, gbps float64) (int, sessionResponse) {
		t.Helper()
		body, _ := json.Marshal(sessionRequest{Src: src, Dst: dst, Gbps: gbps})
		resp, err := http.Post(ts.URL+"/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sess sessionResponse
		if resp.StatusCode == http.StatusCreated {
			if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, sess
	}

	n := srv.top.NumNodes()
	detours, refusals := 0, 0
	for src := 0; src < n && (detours < 5 || refusals < 2); src++ {
		dst := n - 1 - src
		snap := srv.pub.Current()
		best, err := snap.BestPath(src, dst, routing.Options{})
		if err != nil || best.Hops() < 1 {
			continue
		}
		// Warm the unconstrained entry, as a client's GET /path would.
		if code := getJSON(t, fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst), nil); code != http.StatusOK {
			t.Fatalf("GET /path %d -> %d: status %d", src, dst, code)
		}
		gbps := best.Bottleneck + 0.5
		opts := routing.Options{MinBandwidth: gbps}
		want, err := snap.BestPath(src, dst, opts)
		code, sess := post(src, dst, gbps)
		if err != nil {
			if code != http.StatusConflict {
				t.Fatalf("%d -> %d at %.2f Gbps: status %d, want 409 (no path has the bandwidth)", src, dst, gbps, code)
			}
			refusals++
			continue
		}
		if code != http.StatusCreated {
			t.Fatalf("%d -> %d at %.2f Gbps: status %d, want 201 over the %d-hop detour (best path's bottleneck is %.2f)",
				src, dst, gbps, code, want.Hops(), best.Bottleneck)
		}
		if !snap.PathValid(&routing.Path{Nodes: sess.Nodes}, opts) {
			t.Fatalf("%d -> %d: reserved %v, which lacked %.2f Gbps", src, dst, sess.Nodes, gbps)
		}
		detours++
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, sess.ID), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if detours < 5 || refusals < 2 {
		t.Fatalf("scan found %d detour pairs and %d refusals, want at least 5 and 2", detours, refusals)
	}
}
