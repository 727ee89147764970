package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"brokerset/internal/broker"
	"brokerset/internal/churn"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
)

// benchServer builds a serving-sized server for contention benchmarks.
func benchServer(b *testing.B) *Daemon {
	b.Helper()
	top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(top, Config{K: 50, ChurnSeed: 42, SetupQueue: 1024})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// benchPairs samples broker-to-broker query pairs (MaxSG keeps the set
// connected, so a dominated path exists while the topology is healthy).
func benchPairs(srv *Daemon, n int) [][2]int {
	brokers := srv.currentBrokers()
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]int, 0, n)
	for len(pairs) < n {
		s := int(brokers[rng.Intn(len(brokers))])
		d := int(brokers[rng.Intn(len(brokers))])
		if s != d {
			pairs = append(pairs, [2]int{s, d})
		}
	}
	return pairs
}

// benchLinks samples distinct links for the churn storm to flap.
func benchLinks(srv *Daemon, n int) [][2]int32 {
	var links [][2]int32
	srv.top.Graph.Edges(func(u, v int) bool {
		links = append(links, [2]int32{int32(u), int32(v)})
		return true
	})
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	if len(links) > n {
		links = links[:n]
	}
	return links
}

// BenchmarkQueryUnderChurn is the mutex-contention benchmark: all cores
// issue path queries while one goroutine flaps links (with periodic heal
// passes) and another spins session setup/teardown through the control
// plane's 2PC. Under the old global state RWMutex every setup and churn
// burst stalled all queries; with epoch snapshots the query path is
// lock-free, so ns/op here is the headline number BENCH_pr5.json and the
// CI contention-smoke step track.
func BenchmarkQueryUnderChurn(b *testing.B) {
	srv := benchServer(b)
	pairs := benchPairs(srv, 256)
	links := benchLinks(srv, 64)
	ctx := context.Background()

	stop := make(chan struct{})
	var storms sync.WaitGroup
	storms.Add(2)
	go func() { // churn storm: flap link batches, heal every 4th burst
		defer storms.Done()
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
			events := make([]churn.Event, 0, 8)
			for j := 0; j < 8; j++ {
				l := links[(8*i/2+j)%len(links)]
				events = append(events, churn.Event{Type: typ, U: l[0], V: l[1]})
			}
			if _, _, err := srv.churnAndHeal(ctx, events, i%8 == 7); err != nil {
				b.Errorf("churn: %v", err)
				return
			}
		}
	}()
	go func() { // control-plane storm: setup/teardown spins
		defer storms.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := pairs[rng.Intn(len(pairs))]
			sess, err := srv.Setup(ctx, p[0], p[1], 0.01)
			if err != nil {
				continue // capacity or churn-induced abort: fine
			}
			_ = srv.Teardown(ctx, sess.ID)
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			p := pairs[rng.Intn(len(pairs))]
			_, _, err := srv.qp.Query(ctx, p[0], p[1], routing.Options{})
			if err != nil && !errors.Is(err, queryplane.ErrShed) &&
				!errors.Is(err, context.DeadlineExceeded) {
				// "no dominated path" while links are down is expected.
				continue
			}
		}
	})
	b.StopTimer()
	close(stop)
	storms.Wait()
}

// BenchmarkSetupTeardown tracks the control-plane critical-section cost on
// its own (no concurrent queries), so contention wins can be told apart
// from raw 2PC speedups.
func BenchmarkSetupTeardown(b *testing.B) {
	benchSessionCycle(b, benchServer(b))
}

// BenchmarkTable2SessionCycle is the same cycle on the 52,079-node Table-2
// tier with the benchsuite's broker budget (MaxSG k=1064): one flat Setup at
// 0.01 Gbps and its Teardown, two publishes. benchServer's 0.05-scale tier
// has 2,600 arcs per column, so a commit that pays for the whole graph is
// invisible there; here it is most of the cycle, and B/op is guarded beside
// ns/op (testdata/bench_baseline.json) because an O(arcs) allocation per
// commit reads as bytes on any runner, however fast.
func BenchmarkTable2SessionCycle(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(top, Config{K: 1064, ChurnSeed: 42, SetupQueue: 1024})
	if err != nil {
		b.Fatal(err)
	}
	benchSessionCycle(b, srv)
}

// BenchmarkTable2Boot is the layer rung under the harness's setup_s: what
// brokerd does between exec and listen on the benchmark's tier — generate the
// 52,079-node topology (scale 1, seed 1) and build a daemon with K = 1,064
// over it (broker selection, metrics with their latency-order column, the
// control plane's ledgers, the first snapshot). The harness states setup_s at
// bench.speed, which rises when the daemon computes less beside the client,
// so a change that speeds the request path has to keep this at least flat;
// B/op is guarded too because boot garbage reads as rss_mb.
func BenchmarkTable2Boot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		top, err := topology.GenerateInternet(topology.InternetConfig{Scale: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(top, Config{K: 1064}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2ChurnPost is the layer rung under churn_heal: one op is a
// POST /churn {"generate":4} in process — four generated events applied,
// the coalition healed incrementally, the membership pushed into the control
// plane, damaged sessions re-pathed, both snapshots published — on the
// Table-2 daemon (MaxSG k=1064) carrying 300 resident 0.01-Gbps sessions.
// B/op is guarded beside ns/op (testdata/churnpost_baseline.json): the bytes
// a post allocates are what churn_heal's read tail pays for in GC. So is the
// incremental repair's work per post (broker.RepairWork), which is the same
// on every machine: scored/op candidate scorings, probes/op the component
// roots they read, unions/op survivor-replay unions and marked/op blast-ball
// nodes.
func BenchmarkTable2ChurnPost(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(top, Config{K: 1064, ChurnSeed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range benchPairs(srv, 300) {
		if _, err := srv.Setup(ctx, p[0], p[1], 0.01); err != nil {
			b.Fatalf("resident session %d->%d: %v", p[0], p[1], err)
		}
	}
	b.ReportAllocs()
	before := broker.RepairWorkDone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Churn(ctx, nil, 4, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	done := broker.RepairWorkDone()
	perOp := func(n int64) float64 { return float64(n) / float64(b.N) }
	b.ReportMetric(perOp(done.Scored-before.Scored), "scored/op")
	b.ReportMetric(perOp(done.Probes-before.Probes), "probes/op")
	b.ReportMetric(perOp(done.Unions-before.Unions), "unions/op")
	b.ReportMetric(perOp(done.Marked-before.Marked), "marked/op")
}

// benchSessionCycle runs serial Setup+Teardown over broker pairs.
func benchSessionCycle(b *testing.B, srv *Daemon) {
	pairs := benchPairs(srv, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sess, err := srv.Setup(ctx, p[0], p[1], 0.01)
		if err != nil {
			b.Fatalf("setup %d->%d: %v", p[0], p[1], err)
		}
		if err := srv.Teardown(ctx, sess.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetupThroughput is the group-commit headline: 64 goroutines
// spin setup+teardown concurrently. Under the old one-2PC-round-per-request
// serial path each op paid a full prepare broadcast, per-session WAL
// records, and a snapshot publish while 63 peers waited on writeMu; with
// the committer, everything queued behind the current leader rides one
// coalesced round and ONE publish, so ns/op (amortized per op) should beat
// the serial BenchmarkSetupTeardown by well over an order of magnitude at
// this concurrency.
func BenchmarkSetupThroughput(b *testing.B) {
	srv := benchServer(b)
	pairs := benchPairs(srv, 256)
	ctx := context.Background()
	var seed atomic.Int64
	if procs := runtime.GOMAXPROCS(0); procs < 64 {
		b.SetParallelism((64 + procs - 1) / procs) // ~64 concurrent setters
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(7 + seed.Add(1)))
		for pb.Next() {
			p := pairs[rng.Intn(len(pairs))]
			sess, err := srv.Setup(ctx, p[0], p[1], 0.001)
			if err != nil {
				continue // transient capacity exhaustion under 64 setters: fine
			}
			if err := srv.Teardown(ctx, sess.ID); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := srv.plane.Stats()
	if st.BatchRounds > 0 {
		b.ReportMetric(float64(st.BatchOps)/float64(st.BatchRounds), "ops/round")
	}
}

// discardWriter is a ResponseWriter that keeps the status and the byte
// count and drops the body: the handler benchmarks measure the daemon's
// front door, not a recorder's buffer.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// reset readies the writer for the next request without allocating.
func (w *discardWriter) reset() {
	clear(w.h)
	w.code, w.n = 0, 0
}

// serve runs one request through h and fails the benchmark on a status
// other than want.
func (w *discardWriter) serve(b *testing.B, h http.Handler, r *http.Request, want int) {
	w.reset()
	h.ServeHTTP(w, r)
	if w.code != want || w.n == 0 {
		b.Fatalf("%s %s: status %d (%d bytes), want %d", r.Method, r.URL, w.code, w.n, want)
	}
}

// BenchmarkHandler is the front door's rung: Daemon.Handler() — tracing
// middleware, mux, query parse, query plane, JSON body — on the Table-2
// daemon (52,079 nodes, MaxSG k=1064), with a reused request and a
// discarding ResponseWriter, so no socket and no net/http server code is in
// the number. PathHit answers one warmed pair from the cache; PathMiss walks
// distinct broker pairs, so every request searches; SessionCycle is POST
// /sessions and DELETE /sessions/{id}. allocs/op and B/op are the daemon's
// own: testdata/handler_baseline.json guards ns/op and B/op.
func BenchmarkHandler(b *testing.B) {
	top, err := topology.GenerateTier("table2", 1)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(top, Config{K: 1064, ChurnSeed: 42, SetupQueue: 1024})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	brokers := srv.currentBrokers()
	pair := benchPairs(srv, 1)[0]
	w := &discardWriter{h: make(http.Header)}

	b.Run("PathHit", func(b *testing.B) {
		r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/path?src=%d&dst=%d", pair[0], pair[1]), nil)
		w.serve(b, h, r, http.StatusOK) // warm the entry
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.serve(b, h, r, http.StatusOK)
		}
	})

	// Pair k is (brokers[k/n], brokers[k%n]) in a stride order coprime with
	// n², so no pair repeats before every ordered broker pair has been asked.
	n := len(brokers)
	next := 0
	b.Run("PathMiss", func(b *testing.B) {
		r := httptest.NewRequest(http.MethodGet, "/path", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var src, dst int32
			for src == dst {
				k := next * 7919 % (n * n)
				next++
				src, dst = brokers[k/n], brokers[k%n]
			}
			b.StopTimer()
			r.URL.RawQuery = fmt.Sprintf("src=%d&dst=%d", src, dst)
			b.StartTimer()
			w.serve(b, h, r, http.StatusOK)
		}
	})

	b.Run("SessionCycle", func(b *testing.B) {
		body := []byte(fmt.Sprintf(`{"src":%d,"dst":%d,"gbps":0.01}`, pair[0], pair[1]))
		rd := bytes.NewReader(body)
		setup := httptest.NewRequest(http.MethodPost, "/sessions", rd)
		teardown := httptest.NewRequest(http.MethodDelete, "/sessions/0", nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			w.serve(b, h, setup, http.StatusCreated)
			b.StopTimer()
			sessions := srv.Sessions() // the one session the setup left standing
			if len(sessions) != 1 {
				b.Fatalf("%d sessions standing, want 1", len(sessions))
			}
			teardown.URL.Path = "/sessions/" + strconv.Itoa(sessions[0].ID)
			b.StartTimer()
			w.serve(b, h, teardown, http.StatusOK)
		}
	})
}
