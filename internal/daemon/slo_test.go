package daemon

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"brokerset/internal/obs"
)

func TestSLOEndpoint(t *testing.T) {
	// Disabled until -slo-query-p99 wires the engine in.
	_, off := testServer(t)
	if code := getJSON(t, off.URL+"/slo", nil); code != http.StatusNotFound {
		t.Fatalf("disabled /slo status %d, want 404", code)
	}
	srv, ts := testServerWith(t, 0.01, Config{
		K: 20, ChurnSeed: 42, SetupQueue: 1024, SLO: SLOConfig{QueryP99: time.Second, Window: time.Minute},
	})

	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])
	for i := 0; i < 5; i++ {
		url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)
		if code := getJSON(t, url, nil); code != http.StatusOK {
			t.Fatalf("path status %d", code)
		}
	}
	srv.slo.Tick(time.Now())

	resp, err := http.Post(ts.URL+"/slo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /slo status %d, want 405", resp.StatusCode)
	}

	var got sloResponse
	if code := getJSON(t, ts.URL+"/slo", &got); code != http.StatusOK {
		t.Fatalf("/slo status %d", code)
	}
	byName := map[string]obs.ObjectiveStatus{}
	for _, o := range got.Objectives {
		byName[o.Name] = o
	}
	q, ok := byName["query_latency"]
	if !ok {
		t.Fatalf("objectives %v missing query_latency", got.Objectives)
	}
	if q.Good != 5 || q.Bad != 0 {
		t.Fatalf("query_latency good=%d bad=%d, want 5/0", q.Good, q.Bad)
	}
	if _, ok := byName["setup_success"]; !ok {
		t.Fatalf("objectives %v missing setup_success", got.Objectives)
	}
	// Served queries leave trace exemplars behind: the /slo payload walks
	// straight to /debug/trace?trace=ID.
	if len(got.QueryExemplars) == 0 {
		t.Fatal("no query exemplars in /slo payload")
	}
	for _, e := range got.QueryExemplars {
		if e.TraceID == 0 || e.Value <= 0 {
			t.Fatalf("malformed exemplar %+v", e)
		}
	}
	// The slo_* metric families must be on /metrics and valid.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := obs.ValidateExposition(mresp.Body); err != nil {
		t.Fatalf("/metrics with slo families invalid: %v", err)
	}
}
