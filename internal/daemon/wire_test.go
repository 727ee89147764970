package daemon

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// wireStep is one request of the wire script.
type wireStep struct {
	method, url, body string
	header            [2]string // optional request header (name, value)
}

// wireScript is the fixed request sequence the wire golden pins: a path
// miss and its hit, a no-path 404, malformed queries, bids by parameter and
// by header, query spellings that exercise the parse rules, and a session
// lifecycle. d picks the node ids, so the script is the same on every fresh
// daemon built the same way.
func wireScript(t *testing.T, d *Daemon) []wireStep {
	bs := d.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])
	n := d.top.NumNodes()
	noPath := ""
	for a := 0; a < n && noPath == ""; a++ {
		if _, err := d.pub.Current().BestPath(a, n-1-a, routing.Options{}); err != nil {
			noPath = fmt.Sprintf("/path?src=%d&dst=%d", a, n-1-a)
		}
	}
	if noPath == "" {
		t.Fatal("no pair without a dominated path")
	}
	pair := fmt.Sprintf("src=%d&dst=%d", src, dst)
	get := func(url string) wireStep { return wireStep{method: http.MethodGet, url: url} }
	setup := fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":0.5}`, src, dst)
	return []wireStep{
		get("/healthz"),
		get("/path?" + pair),
		get("/path?" + pair),
		get(noPath),
		get(fmt.Sprintf("/path?src=x&dst=%d", dst)),
		get(fmt.Sprintf("/path?src=-1&dst=%d", dst)),
		get("/path?" + pair + "&maxhops=0"),
		get("/path?" + pair + "&minbw=NaN"),
		get("/path?" + pair + "&minbw=+0"),
		get("/path?" + pair + "&minbw=%30.25"),
		get("/path?" + pair + "&maxhops=4294967297"),
		get("/path?" + pair + "&bid=2.5"),
		{method: http.MethodGet, url: "/path?" + pair, header: [2]string{"X-Econ-Bid", "1"}},
		get(fmt.Sprintf("/path?dst=%d&src=%d&src=junk", dst, src)),
		get(fmt.Sprintf("/path?src=junk&src=%d&dst=%d", src, dst)),
		get(fmt.Sprintf("/path?src=%d;&dst=%d", src, dst)),
		get(fmt.Sprintf("/path?src=%%zz&src=%d&dst=%d", src, dst)),
		get(fmt.Sprintf("/path?%%73rc=%d&dst=%d", src, dst)),
		{method: http.MethodPost, url: "/sessions", body: setup},
		get("/sessions/1"),
		get("/sessions"),
		{method: http.MethodPost, url: "/sessions/1/renew"},
		{method: http.MethodDelete, url: "/sessions/1"},
		{method: http.MethodDelete, url: "/sessions/1"},
		{method: http.MethodPost, url: "/sessions/1/renew"},
		get("/sessions/abc"),
		{method: http.MethodPost, url: "/sessions", body: `{"src":`},
		{method: http.MethodPost, url: "/sessions", body: fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":1e9}`, src, dst)},
		get("/sessions"),
	}
}

// wireLine renders one answer: status, the headers a client reads, the body,
// and the Content-Length when the transport states one (cl < -1: omitted).
func wireLine(st wireStep, code int, h http.Header, body string, cl int64) string {
	length := ""
	if cl >= -1 {
		length = fmt.Sprintf(" len=%d", cl)
	}
	return fmt.Sprintf("%s %s -> %d ct=%q cache=%q%s body=%q",
		st.method, st.url, code, h.Get("Content-Type"), h.Get("X-Cache"), length, body)
}

func wireDaemon(t *testing.T) *Daemon {
	t.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(top, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var wireLength = regexp.MustCompile(` len=-?\d+`)

// TestWireGolden pins what a client reads off the front door — status,
// Content-Type, X-Cache, Content-Length and the body bytes — for a scripted
// sequence, in-process through Handler() and over a loopback socket, against
// testdata/wire_golden.txt. The golden was written before the front door's
// encoder and query parse were replaced and is never regenerated: a byte that
// moves is a wire change.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/wire_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")

	check := func(name string, got []string, strip bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d lines, golden has %d:\n%s", name, len(got), len(want), strings.Join(got, "\n"))
		}
		for i := range want {
			w := want[i]
			if strip {
				w = wireLength.ReplaceAllString(w, "")
			}
			if got[i] != w {
				t.Errorf("%s line %d:\n got: %s\nwant: %s", name, i, got[i], w)
			}
		}
	}

	d := wireDaemon(t)
	h := d.Handler()
	var inproc []string
	for _, st := range wireScript(t, d) {
		req := httptest.NewRequest(st.method, st.url, strings.NewReader(st.body))
		if st.header[0] != "" {
			req.Header.Set(st.header[0], st.header[1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Header().Get("X-Trace-ID") == "" {
			t.Errorf("%s %s: no X-Trace-ID", st.method, st.url)
		}
		inproc = append(inproc, wireLine(st, rec.Code, rec.Header(), rec.Body.String(), -2))
	}
	check("Handler()", inproc, true)

	d = wireDaemon(t)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	var loopback []string
	for _, st := range wireScript(t, d) {
		req, err := http.NewRequest(st.method, ts.URL+st.url, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		if st.header[0] != "" {
			req.Header.Set(st.header[0], st.header[1])
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("X-Trace-ID") == "" {
			t.Errorf("%s %s: no X-Trace-ID over the socket", st.method, st.url)
		}
		loopback = append(loopback, wireLine(st, resp.StatusCode, resp.Header, string(body), resp.ContentLength))
	}
	check("loopback", loopback, false)
}
