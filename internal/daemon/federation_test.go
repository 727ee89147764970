package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func testFedServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	return testServerWith(t, 0.02, Config{
		K: 40, Seed: 1, ChurnSeed: 42, SetupQueue: 1024, Regions: 3, CrossingCost: 2.0,
	})
}

func TestFederationRegionsEndpoint(t *testing.T) {
	srv, ts := testFedServer(t)
	var regions []fedRegionInfo
	if code := getJSON(t, ts.URL+"/federation/regions", &regions); code != http.StatusOK {
		t.Fatalf("regions status %d", code)
	}
	if len(regions) != 3 {
		t.Fatalf("got %d regions, want 3", len(regions))
	}
	members := 0
	for i, reg := range regions {
		if reg.ID != i || !reg.Up {
			t.Fatalf("region %d = %+v", i, reg)
		}
		if reg.Brokers == 0 || len(reg.BorderIXPs) == 0 {
			t.Fatalf("region %d has no brokers/borders: %+v", i, reg)
		}
		members += reg.Members
	}
	if members != srv.top.NumNodes() {
		t.Fatalf("region members sum to %d, want %d nodes", members, srv.top.NumNodes())
	}
}

// TestFederationPathEndpoint finds a cross-region pair and asserts the
// stitched response is coherent: segment latencies plus crossing costs
// sum to the total, and every region appears at most once.
func TestFederationPathEndpoint(t *testing.T) {
	srv, ts := testFedServer(t)
	part := srv.fed.Partition()
	src := part.Members(0)[0]
	dst := part.Members(2)[0]
	var pr fedPathResponse
	code := getJSON(t, fmt.Sprintf("%s/federation/path?src=%d&dst=%d", ts.URL, src, dst), &pr)
	if code != http.StatusOK {
		t.Fatalf("federation/path status %d", code)
	}
	if len(pr.Segments) < 2 || pr.Crossings != len(pr.Segments)-1 {
		t.Fatalf("stitched response = %+v", pr)
	}
	sum := 0.0
	for _, seg := range pr.Segments {
		sum += seg.LatencyMs
	}
	sum += float64(pr.Crossings) * 2.0
	if diff := pr.LatencyMs - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("latency %f != segment sum %f", pr.LatencyMs, sum)
	}
	if pr.Nodes[0] != src || pr.Nodes[len(pr.Nodes)-1] != dst {
		t.Fatalf("endpoints %d..%d, want %d..%d", pr.Nodes[0], pr.Nodes[len(pr.Nodes)-1], src, dst)
	}

	if code := getJSON(t, ts.URL+"/federation/path?src=0&dst=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad dst accepted: %d", code)
	}
}

func TestFederationPathOptionsCannotCorruptCache(t *testing.T) {
	srv, ts := testFedServer(t)
	requirePathOptionsSafe(t, srv, ts.URL+"/federation/path")
}

func TestFederationSessionLifecycle(t *testing.T) {
	srv, ts := testFedServer(t)
	part := srv.fed.Partition()
	body, _ := json.Marshal(sessionRequest{
		Src: int(part.Members(0)[0]), Dst: int(part.Members(2)[0]), Gbps: 1,
	})
	resp, err := http.Post(ts.URL+"/federation/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sess fedSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup status %d: %+v", resp.StatusCode, sess)
	}
	if sess.State != "committed" || sess.Crossings == 0 {
		t.Fatalf("session = %+v", sess)
	}

	var list []fedSessionResponse
	if code := getJSON(t, ts.URL+"/federation/sessions", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list status %d, %d sessions", code, len(list))
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/federation/sessions/%d", ts.URL, sess.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("teardown status %d", dresp.StatusCode)
	}
	if code := getJSON(t, fmt.Sprintf("%s/federation/sessions/%d", ts.URL, sess.ID), nil); code != http.StatusNotFound {
		t.Fatalf("released session still served: %d", code)
	}

	var st fedStatsResponse
	if code := getJSON(t, ts.URL+"/federation/stats", &st); code != http.StatusOK {
		t.Fatalf("federation/stats status %d", code)
	}
	if st.Stats.Commits != 1 || st.Stats.Teardowns != 1 {
		t.Fatalf("stats = %+v", st.Stats)
	}

	// The fabric must be conserved after the full lifecycle.
	if err := srv.fed.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A federated session the healer had to abort is gone from the one session
// table the fabric keeps: the list stops showing it and GET and DELETE on its
// id answer 404, like any other released session. (A second table in the
// daemon used to keep it: listed as "aborted" forever, 500 on DELETE.)
func TestFederationHealAbortedSessionIsGone(t *testing.T) {
	srv, ts := testFedServer(t)
	part := srv.fed.Partition()
	body, _ := json.Marshal(sessionRequest{
		Src: int(part.Members(0)[0]), Dst: int(part.Members(2)[0]), Gbps: 1,
	})
	resp, err := http.Post(ts.URL+"/federation/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sess fedSessionResponse
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup status %d, decode error %v", resp.StatusCode, err)
	}

	// With the destination's region down no stitched path survives, so the
	// next heal pass has to abort the session.
	srv.fed.CrashRegion(2)
	rep := srv.fed.Heal(context.Background())
	if rep.Aborted != 1 {
		t.Fatalf("heal report %+v, want 1 aborted", rep)
	}

	var list []fedSessionResponse
	if code := getJSON(t, ts.URL+"/federation/sessions", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("list status %d, sessions %+v; want none", code, list)
	}
	url := fmt.Sprintf("%s/federation/sessions/%d", ts.URL, sess.ID)
	if code := getJSON(t, url, nil); code != http.StatusNotFound {
		t.Fatalf("GET heal-aborted session: status %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE heal-aborted session: status %d, want 404", dresp.StatusCode)
	}
}

// TestFederationMetricsExposed checks the federation_* counters land in
// the Prometheus exposition once the fabric is enabled.
func TestFederationMetricsExposed(t *testing.T) {
	_, ts := testFedServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"federation_setups_total", "federation_region0_up", "federation_backlogged"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %s:\n%s", want, buf.String())
		}
	}
}
