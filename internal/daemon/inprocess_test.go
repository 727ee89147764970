package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// front is one way into a daemon: its HTTP handler, or the typed methods
// the handlers call. Statuses are HTTP's; the typed front maps each error to
// the status the handler answers it with.
type front interface {
	path(src, dst int) (status int, cached bool, nodes []int32)
	setup(src, dst int, gbps float64) (status, id int, nodes []int32)
	renew(id int) int
	teardown(id int) int
	churn(generate int) (int, ChurnResult)
}

type httpFront struct {
	t *testing.T
	h http.Handler
}

func (f httpFront) do(method, url string, body, out any) *httptest.ResponseRecorder {
	var rd bytes.Buffer
	if body != nil {
		_ = json.NewEncoder(&rd).Encode(body)
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, url, &rd))
	if out != nil && rec.Code < 300 {
		if err := json.NewDecoder(rec.Body).Decode(out); err != nil {
			f.t.Errorf("%s %s: decode: %v", method, url, err)
		}
	}
	return rec
}

func (f httpFront) path(src, dst int) (int, bool, []int32) {
	var p pathResponse
	rec := f.do(http.MethodGet, fmt.Sprintf("/path?src=%d&dst=%d", src, dst), nil, &p)
	return rec.Code, rec.Header().Get("X-Cache") == "hit", p.Nodes
}

func (f httpFront) setup(src, dst int, gbps float64) (int, int, []int32) {
	var s sessionResponse
	rec := f.do(http.MethodPost, "/sessions", sessionRequest{Src: src, Dst: dst, Gbps: gbps}, &s)
	return rec.Code, s.ID, s.Nodes
}

func (f httpFront) renew(id int) int {
	return f.do(http.MethodPost, fmt.Sprintf("/sessions/%d/renew", id), nil, nil).Code
}

func (f httpFront) teardown(id int) int {
	return f.do(http.MethodDelete, fmt.Sprintf("/sessions/%d", id), nil, nil).Code
}

func (f httpFront) churn(generate int) (int, ChurnResult) {
	var res ChurnResult
	rec := f.do(http.MethodPost, "/churn", churnRequest{Generate: generate}, &res)
	return rec.Code, res
}

type typedFront struct{ d *Daemon }

func (f typedFront) path(src, dst int) (int, bool, []int32) {
	p, cached, err := f.d.QueryPlane().QueryBid(context.Background(), src, dst, routing.Options{}, 0)
	if err != nil {
		return http.StatusNotFound, false, nil
	}
	return http.StatusOK, cached, p.Nodes
}

func (f typedFront) setup(src, dst int, gbps float64) (int, int, []int32) {
	sess, err := f.d.Setup(context.Background(), src, dst, gbps)
	switch {
	case errors.Is(err, errSetupShed):
		return http.StatusTooManyRequests, 0, nil
	case err != nil:
		return http.StatusConflict, 0, nil
	}
	return http.StatusCreated, sess.ID, sess.Path
}

func (f typedFront) renew(id int) int {
	if !f.d.Renew(id) {
		return http.StatusGone
	}
	return http.StatusOK
}

func (f typedFront) teardown(id int) int {
	switch err := f.d.Teardown(context.Background(), id); {
	case errors.Is(err, errNoSession):
		return http.StatusNotFound
	case err != nil:
		return http.StatusInternalServerError
	}
	return http.StatusOK
}

func (f typedFront) churn(generate int) (int, ChurnResult) {
	res, err := f.d.Churn(context.Background(), nil, generate, true)
	if err != nil {
		return http.StatusBadRequest, res
	}
	return http.StatusOK, res
}

// script drives one fixed sequence of requests through f and returns what
// came back, line by line, ending with the daemon's own counters.
func script(t *testing.T, d *Daemon, f front) []string {
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	bs := d.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	// Path: a miss, the hit it leaves behind, and a pair with no path.
	for i := 0; i < 2; i++ {
		code, cached, nodes := f.path(src, dst)
		logf("path %d: %d cached=%v %v", i, code, cached, nodes)
	}
	n := d.top.NumNodes()
	for a := 0; a < n; a++ {
		if _, err := d.pub.Current().BestPath(a, n-1-a, routing.Options{}); err != nil {
			code, _, _ := f.path(a, n-1-a)
			logf("no path %d -> %d: %d", a, n-1-a, code)
			break
		}
	}

	// Session lifecycle: setup, heartbeat, teardown, and each on a gone id.
	code, id, nodes := f.setup(src, dst, 0.5)
	logf("setup: %d id=%d %v", code, id, nodes)
	logf("renew: %d, of an unknown id: %d", f.renew(id), f.renew(id+100))
	logf("teardown: %d, again: %d, renew after: %d", f.teardown(id), f.teardown(id), f.renew(id))
	code, _, _ = f.setup(0, 1, 0)
	logf("zero-bandwidth setup: %d", code)

	// A best path too thin for the session: the setup takes the detour when
	// one has the bandwidth and is refused when none has (the scan of
	// TestSetupDetoursAroundThinBestPath).
	detours, refusals := 0, 0
	for a := 0; a < n && (detours < 2 || refusals < 1); a++ {
		b := n - 1 - a
		best, err := d.pub.Current().BestPath(a, b, routing.Options{})
		if err != nil || best.Hops() < 1 {
			continue
		}
		f.path(a, b) // warm the unconstrained entry, as a client's GET /path would
		code, id, nodes := f.setup(a, b, best.Bottleneck+0.5)
		logf("thin %d -> %d: %d id=%d %v", a, b, code, id, nodes)
		if code == http.StatusCreated {
			detours++
			logf("thin teardown: %d", f.teardown(id))
		} else {
			refusals++
		}
	}
	if detours < 2 || refusals < 1 {
		t.Fatalf("scan found %d detours and %d refusals, want 2 and 1", detours, refusals)
	}

	// Shed: with SetupQueue 1, a setup that arrives while another is queued
	// is refused. Holding the write mutex keeps the first one queued.
	d.writeMu.Lock()
	queued := make(chan string)
	go func() {
		code, id, nodes := f.setup(src, dst, 0.01)
		queued <- fmt.Sprintf("queued setup: %d id=%d %v", code, id, nodes)
	}()
	for depth := 0; depth < 1; runtime.Gosched() {
		d.commit.mu.Lock()
		depth = len(d.commit.queue)
		d.commit.mu.Unlock()
	}
	code, _, _ = f.setup(dst, src, 0.01)
	logf("setup behind it: %d, %d shed", code, d.commit.shed.Load())
	d.writeMu.Unlock()
	out = append(out, <-queued)

	// A generated churn burst, healed.
	code, res := f.churn(6)
	if res.Heal != nil {
		res.Heal.Duration = 0
	}
	burst, _ := json.Marshal(res)
	logf("churn: %d %s", code, burst)
	code, cached, nodes := f.path(src, dst)
	logf("path after churn: %d cached=%v %v", code, cached, nodes)

	qs := d.QueryPlane().Stats()
	qs.P50, qs.P95, qs.P99 = 0, 0, 0
	logf("plane %+v", d.PlaneStats())
	logf("queryplane %+v", qs)
	logf("epoch %d, %d sessions", d.Snapshot().ID(), d.sessions.Len())
	return out
}

// TestInProcessMatchesHTTP: one scripted sequence run through Handler() and
// through the typed methods, on identically seeded daemons, reads the same
// statuses, session ids and paths and leaves the same control-plane and
// query-plane counters — what makes an in-process loadgen run's numbers the
// daemon's.
func TestInProcessMatchesHTTP(t *testing.T) {
	boot := func() *Daemon {
		top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(top, Config{K: 20, ChurnSeed: 42, SetupQueue: 1, LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	overHTTP, typed := boot(), boot()
	want := script(t, overHTTP, httpFront{t, overHTTP.Handler()})
	got := script(t, typed, typedFront{typed})
	if len(got) != len(want) {
		t.Fatalf("typed methods answered %d lines, HTTP %d:\n%s\n--- HTTP:\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n typed: %s\n  HTTP: %s", i, got[i], want[i])
		}
	}
	for _, must := range []string{"path 0: 200 cached=false", "path 1: 200 cached=true", ": 404",
		"setup: 201", "renew: 200, of an unknown id: 410", "teardown: 200, again: 404, renew after: 410",
		"zero-bandwidth setup: 409", "setup behind it: 429, 1 shed", "queued setup: 201", "churn: 200"} {
		if !strings.Contains(strings.Join(want, "\n"), must) {
			t.Errorf("script never read %q:\n%s", must, strings.Join(want, "\n"))
		}
	}
}

// TestRunStopsEveryLoop: with every background loop enabled, Run returns
// promptly once its context is cancelled and leaves no goroutine behind; with
// none enabled it still holds until then (cmd/brokerd drains when it returns).
func TestRunStopsEveryLoop(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	every := Config{
		K: 40, Seed: 1, ChurnSeed: 42, SetupQueue: 1024,
		Churn: 5 * time.Millisecond, LeaseTTL: 20 * time.Millisecond,
		Regions: 3, CrossingCost: 2.0,
		Econ: &EconConfig{Every: 5 * time.Millisecond},
		SLO:  SLOConfig{QueryP99: time.Second, Window: time.Minute, Every: 5 * time.Millisecond},
	}
	for name, cfg := range map[string]Config{"every loop": every, "no loop": {K: 40}} {
		t.Run(name, func(t *testing.T) {
			d, err := New(top, cfg)
			if err != nil {
				t.Fatal(err)
			}
			bs := d.currentBrokers()
			if _, err := d.Setup(context.Background(), int(bs[0]), int(bs[1]), 0.01); err != nil {
				t.Fatal(err)
			}

			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				d.Run(ctx)
			}()
			// Every loop has done its work at least once: a heal pass, the
			// unrenewed session swept, a fabric beat, a reprice.
			idle := func() string {
				if cfg.Churn == 0 {
					return ""
				}
				beats := d.fed.Stats().Beats
				heals, sessions, reprices := d.healer.Metrics.HealPasses.Load(), d.sessions.Len(), d.econ.Ctrl.Ticks()
				if heals > 0 && sessions == 0 && beats > 0 && reprices > 0 {
					return ""
				}
				return fmt.Sprintf("%d heal passes, %d sessions, %d fabric beats, %d reprices", heals, sessions, beats, reprices)
			}
			for deadline := time.Now().Add(10 * time.Second); idle() != ""; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("loops idle after 10s: %s", idle())
				}
			}
			select {
			case <-done:
				t.Fatal("Run returned before cancellation")
			case <-time.After(20 * time.Millisecond):
			}
			cancel()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("Run still going 1s after cancellation")
			}
			// Run returning means every loop is past its last beat; give the
			// goroutines the instant they need to finish exiting.
			for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before Run, %d after it returned", before, after)
			}
		})
	}
}
