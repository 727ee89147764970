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
	"sync"
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
	p, cached, err := f.d.QueryPlane().Query(context.Background(), src, dst, routing.Options{})
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

// everyJob enables every background job, each at its own period.
var everyJob = Config{
	K: 40, Seed: 1, ChurnSeed: 42, SetupQueue: 1024,
	Churn: 40 * time.Millisecond, LeaseTTL: 80 * time.Millisecond,
	Regions: 3, CrossingCost: 2.0,
	SLO: SLOConfig{QueryP99: time.Second, Window: time.Minute, Every: 25 * time.Millisecond},
}

// TestBeatRunsEachJobAtItsPeriod drives beat under an injected clock, 5 ms a
// step: every enabled job runs exactly at each multiple of its period, the
// jobs due on one beat run in the fixed order, and each job's run reaches
// the subsystem it drives.
func TestBeatRunsEachJobAtItsPeriod(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(top, everyJob)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []struct {
		name   string
		period time.Duration
	}{{"lease", 20 * time.Millisecond}, {"churn", 40 * time.Millisecond}, {"federation", 100 * time.Millisecond},
		{"slo", 25 * time.Millisecond}}
	if len(d.jobs) != len(schedule) {
		t.Fatalf("%d jobs scheduled, want %d", len(d.jobs), len(schedule))
	}
	var ran []string
	for i, want := range schedule {
		j := &d.jobs[i]
		if j.period != want.period {
			t.Fatalf("job %d runs every %v, want the %s job's %v", i, j.period, want.name, want.period)
		}
		run := j.run
		j.run = func(ctx context.Context) {
			ran = append(ran, fmt.Sprintf("%v %s", d.now().Sub(time.Unix(0, 0)), want.name))
			run(ctx)
		}
	}
	clock := time.Unix(0, 0)
	d.now = func() time.Time { return clock }
	var want []string
	for at := time.Duration(0); at <= 200*time.Millisecond; at += 5 * time.Millisecond {
		clock = time.Unix(0, 0).Add(at)
		d.beat(context.Background())
		for _, j := range schedule {
			if at > 0 && at%j.period == 0 {
				want = append(want, fmt.Sprintf("%v %s", at, j.name))
			}
		}
	}
	if strings.Join(ran, "\n") != strings.Join(want, "\n") {
		t.Fatalf("beats ran:\n%s\nwant:\n%s", strings.Join(ran, "\n"), strings.Join(want, "\n"))
	}
	if heals, beats := d.healer.Metrics.HealPasses.Load(), d.fed.Stats().Beats; heals != 5 || beats != 2 {
		t.Fatalf("%d heal passes, %d fabric beats; want 5, 2", heals, beats)
	}
}

// TestBeatKeepsItsGrid: a job stays on the grid its first beat armed, so a
// beat read a little late does not push every later run back (a ticker at
// the job's own period would then skip every other tick), and a job that
// fell a whole period behind runs once, not once per missed period.
func TestBeatKeepsItsGrid(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(top, Config{K: 20, LeaseTTL: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var ran []time.Duration
	run := d.jobs[0].run
	d.jobs[0].run = func(ctx context.Context) {
		ran = append(ran, d.now().Sub(time.Unix(0, 0)))
		run(ctx)
	}
	for _, at := range []time.Duration{0, 101, 200, 450, 500, 549, 550} {
		clock := time.Unix(0, 0).Add(at * time.Millisecond)
		d.now = func() time.Time { return clock }
		d.beat(context.Background())
	}
	want := []time.Duration{101 * time.Millisecond, 200 * time.Millisecond, 450 * time.Millisecond, 550 * time.Millisecond}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("lease job ran at %v, want %v", ran, want)
	}
}

// TestBeatExpiresLeaseAtTTL: under an injected clock, the lease job
// presumed-releases an unrenewed session on the first beat at its TTL, and a
// renewed one a TTL after its renewal.
func TestBeatExpiresLeaseAtTTL(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(top, Config{K: 40, LeaseTTL: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(0, 0)
	d.now = func() time.Time { return clock }
	bs := d.currentBrokers()
	var ids [2]int
	for i := range ids {
		sess, err := d.Setup(context.Background(), int(bs[0]), int(bs[1+i]), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = sess.ID
	}
	d.beat(context.Background())
	for at := 10 * time.Millisecond; at <= 60*time.Millisecond; at += 10 * time.Millisecond {
		clock = time.Unix(0, 0).Add(at)
		if at == 20*time.Millisecond && !d.Renew(ids[1]) {
			t.Fatal("renewal refused before the TTL")
		}
		d.beat(context.Background())
		for i, lapse := range []time.Duration{40 * time.Millisecond, 60 * time.Millisecond} {
			if _, held := d.Session(ids[i]); held != (at < lapse) {
				t.Fatalf("at %v session %d held = %v, want its lease to lapse at %v", at, ids[i], held, lapse)
			}
		}
	}
	if d.leaseCounts.expiries != 2 {
		t.Fatalf("%d expiries, want 2", d.leaseCounts.expiries)
	}
}

// watchedCtx closes waiting the first time its Done channel is asked for:
// from then on, a Run that has not returned is waiting on it.
type watchedCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *watchedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// goroutineStacks returns every goroutine's stack, keyed by its id.
func goroutineStacks() map[string]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		stacks[id] = g
	}
	return stacks
}

// startedSince returns the stacks of the goroutines not in before that run
// this module's code or were started by it: a frame, or the "created by"
// line, under brokerset/internal/.
func startedSince(before map[string]string) []string {
	var started []string
	for id, g := range goroutineStacks() {
		if _, ok := before[id]; !ok && strings.Contains(g, "brokerset/internal/") {
			started = append(started, g)
		}
	}
	return started
}

// TestRunStopsEveryLoop: Run drives every enabled job from its one ticker —
// the test's ctx is cancelled from inside the job that runs last — returns
// only once that happens, and leaves no goroutine behind: once it has
// returned, no goroutine that was not already there runs or was started by
// this module's code — the daemon's, or a heal worker's in coverage or
// policy. With no job enabled it still holds until cancellation
// (cmd/brokerd drains when it returns): the ctx is cancelled only after Run
// has asked for its Done channel.
func TestRunStopsEveryLoop(t *testing.T) {
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast := everyJob
	fast.Churn, fast.LeaseTTL = 5*time.Millisecond, 20*time.Millisecond
	fast.SLO.Every = 5 * time.Millisecond
	for name, cfg := range map[string]Config{"every loop": fast, "no loop": {K: 40}} {
		t.Run(name, func(t *testing.T) {
			d, err := New(top, cfg)
			if err != nil {
				t.Fatal(err)
			}
			parent, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			ctx := &watchedCtx{Context: parent, waiting: make(chan struct{})}
			idle := len(d.jobs)
			for i := range d.jobs {
				j := &d.jobs[i]
				run, ran := j.run, false
				j.run = func(ctx context.Context) {
					run(ctx)
					if !ran {
						ran = true
						if idle--; idle == 0 {
							cancel()
						}
					}
				}
			}
			before := goroutineStacks()
			returned := make(chan error, 1)
			go func() {
				d.Run(ctx)
				returned <- ctx.Err()
			}()
			if len(d.jobs) == 0 {
				select {
				case <-ctx.waiting:
					cancel()
				case err := <-returned:
					t.Fatalf("Run with no job returned without waiting on its ctx (ctx error %v)", err)
				}
			}
			switch err := <-returned; {
			case err == nil:
				t.Fatal("Run returned before cancellation")
			case !errors.Is(err, context.Canceled):
				t.Fatalf("%d of %d jobs never ran in 10s: %v", idle, len(d.jobs), err)
			case idle != 0:
				t.Fatalf("Run returned with %d of %d jobs never run", idle, len(d.jobs))
			}
			// Whatever Run started has stopped, or is stopping: a goroutine
			// may still be unwinding its last return, so yield to it first.
			left := startedSince(before)
			for i := 0; len(left) > 0 && i < 1000; i++ {
				runtime.Gosched()
				left = startedSince(before)
			}
			for _, stack := range left {
				t.Fatalf("a goroutine started since Run was called still runs after it returned:\n%s", stack)
			}
		})
	}
}
