package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// encodeJSON is what the front door used to write: json.Encoder's bytes.
func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzBodyMatchesEncodingJSON: every body the front door appends by hand —
// a path, a session, an {"error": …} and a {"status": …} — is byte for byte
// what json.NewEncoder(w).Encode writes for the same value, whatever the
// names (invalid UTF-8, <>&, U+2028/2029, control bytes), floats, ids and
// hop counts.
func FuzzBodyMatchesEncodingJSON(f *testing.F) {
	f.Add("AS1005", "IXP SynthIX London", []byte{0, 1, 2}, 4.936789545129221, 1, 2, 0.5, false)
	f.Add("a<b>&c", "  ", []byte{2, 2}, 0.0, 0, -1, 1e-7, true)
	f.Add("\xff\xfe ok", "\x00\x01\b\f\n\r\t\x1f\"\\", []byte{}, math.Copysign(0, -1), -5, 0, 1e21, false)
	f.Add("é\U0001F600", "\xed\xa0\x80", []byte{1}, 5e-324, math.MaxInt64, math.MinInt64, 1e-6, false)
	f.Add("x", "y", []byte{0, 1}, 999999999999999999999.0, 3, 7, 123456789.125, false)
	f.Fuzz(func(t *testing.T, a, b string, picks []byte, latency float64, id, hops int, gbps float64, nilNodes bool) {
		finite := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0 // encoding/json refuses these; the front door never writes one
			}
			return x
		}
		latency, gbps = finite(latency), finite(gbps)
		table := []string{a, b, a + b}
		var nodes []int32
		names := []string{}
		if !nilNodes {
			nodes = []int32{}
			for _, p := range picks {
				u := int32(p) % int32(len(table))
				nodes = append(nodes, u)
				names = append(names, table[u])
			}
		}

		want := encodeJSON(t, pathResponse{Nodes: nodes, Names: names, Hops: len(nodes) - 1, LatencyMs: latency})
		if got := string(appendPath(nil, nodes, table, latency)) + "\n"; got != want {
			t.Errorf("path:\n got %q\nwant %q", got, want)
		}
		sess := sessionResponse{ID: id, Nodes: nodes, Hops: hops, Bandwidth: gbps}
		if got := string(sess.appendJSON(nil)) + "\n"; got != encodeJSON(t, sess) {
			t.Errorf("session:\n got %q\nwant %q", got, encodeJSON(t, sess))
		}
		rec := httptest.NewRecorder()
		writeError(rec, http.StatusNotFound, "%s", a)
		if want := encodeJSON(t, map[string]string{"error": a}); rec.Body.String() != want {
			t.Errorf("error:\n got %q\nwant %q", rec.Body.String(), want)
		}
		rec = httptest.NewRecorder()
		writeStatus(rec, http.StatusOK, b)
		if want := encodeJSON(t, map[string]string{"status": b}); rec.Body.String() != want {
			t.Errorf("status:\n got %q\nwant %q", rec.Body.String(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
	})
}

// FuzzQueryArgsMatchParseQuery: the one parse of a path endpoint's query
// reads, for every key the endpoints use, what url.ParseQuery(raw).Get(key)
// reads — first value wins, pairs with ';' or a bad escape are skipped.
func FuzzQueryArgsMatchParseQuery(f *testing.F) {
	for _, raw := range []string{
		"src=1&dst=2", "src=5&dst=39&maxhops=0&minbw=NaN&bid=2.5", "src=a;b&src=3",
		"%73rc=4&d%73t=%35", "src=%zz&src=5", "src=+1&minbw=%2B0.5", "minbw=%30.5&minbw=1",
		"bid=&bid=3", "src&src=2", "&&src=1&", "src=1%", "src=%4", "maxhops=1e3&maxhops",
		"=1&src==2", "bid=1;&bid=2", "src=%E2%80%A8",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q := parsePathQuery(raw)
		want, _ := url.ParseQuery(raw)
		for key, got := range map[string]string{
			"src": q.src, "dst": q.dst, "maxhops": q.maxhops, "minbw": q.minbw, "bid": q.bid,
		} {
			if got != want.Get(key) {
				t.Errorf("%q: %s = %q, ParseQuery reads %q", raw, key, got, want.Get(key))
			}
		}
	})
}

// TestPathHitAllocs pins what a cache hit through Handler() allocates (25
// allocations before the front door stopped allocating, 7 after): the root
// and query-plane spans with their context nodes, net/http's request copy in
// WithContext, and the X-Trace-Id value. The bar leaves a little room.
func TestPathHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	d := wireDaemon(t)
	h := d.Handler()
	bs := d.currentBrokers()
	r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/path?src=%d&dst=%d", bs[0], bs[len(bs)-1]), nil)
	w := &discardWriter{h: make(http.Header)}
	h.ServeHTTP(w, r) // the miss that warms the entry
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		h.ServeHTTP(w, r)
	})
	if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
		t.Fatalf("status %d, X-Cache %q: not a hit", w.code, w.h.Get("X-Cache"))
	}
	if allocs > 10 {
		t.Fatalf("a path hit allocates %.0f times, want <= 10", allocs)
	}
}
