// Command brokerd serves the broker coalition over HTTP: dominated-path
// queries and QoS session setup/teardown backed by the control plane's
// two-phase commit. Path queries go through the concurrent query plane
// (sharded LRU cache, singleflight, bounded worker pool with shedding).
//
// Usage:
//
//	brokerd -scale 0.1 -k 100 -addr :8080
//	brokerd -topo topo.txt -k 0           # complete alliance
//
// Endpoints (the route table is internal/daemon/http.go; a path asked with a
// method its routes do not name is a 405 carrying an Allow header):
//
//	GET    /healthz
//	GET    /stats
//	GET    /metrics
//	GET    /brokers
//	GET    /path?src=A&dst=B[&maxhops=N][&minbw=G]
//	GET    /sessions
//	POST   /sessions             {"src":A,"dst":B,"gbps":G}
//	GET    /sessions/{id}
//	DELETE /sessions/{id}
//	POST   /sessions/{id}/renew  (with -lease-ttl) heartbeat; 410 once the lease lapsed
//	POST   /churn                {"events":[...]} | {"generate":N} [, "heal":false]
//	GET    /slo                  (with -slo-query-p99) evaluated objectives and burn rates
//	GET    /debug/trace          spans as Chrome trace JSON [?trace=ID][&format=jsonl]
//	GET    /debug/flight         flight-recorder ring as JSONL
//
// The paper's §7 economics (Stackelberg price, Nash bargaining, Shapley
// split) is a model, not a serving path: `experiments econ fig6 shapley
// ext-formation ext-market` reproduces it offline.
//
// With -churn set, a background job additionally draws Poisson bursts of
// churn from the seeded generator at that interval, applies them, and
// self-heals the coalition (broker re-selection, session re-pathing, cache
// invalidation).
//
// With -regions N set, the topology is additionally partitioned into N
// federated broker regions served under /federation/*: GET regions, path and
// stats; GET and POST sessions; GET and DELETE sessions/{id}.
//
// The server itself is internal/daemon; this command is its flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"brokerset/internal/daemon"
	"brokerset/internal/topology"
)

// options is everything the command line sets: where to listen and what to
// load, and the daemon.Config the remaining flags fill field for field.
type options struct {
	addr, topoFile string
	scale          float64
	drain          time.Duration
	cfg            daemon.Config
}

func defineFlags(fs *flag.FlagSet) *options {
	o := new(options)
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.topoFile, "topo", "", "topology file (empty: generate)")
	fs.Float64Var(&o.scale, "scale", 0.1, "generated topology scale")
	fs.Int64Var(&c.Seed, "seed", 1, "generator seed")
	fs.IntVar(&c.K, "k", 100, "broker budget (0 = complete alliance)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown deadline")

	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 0, "committed-session heartbeat lease TTL (0 = sessions never expire)")
	fs.DurationVar(&c.LeaseSweep, "lease-sweep", 0, "lease expiry sweep interval (default lease-ttl/4)")
	fs.IntVar(&c.SetupQueue, "setup-queue", 1024, "group-commit queue high-water mark; new setups shed (429) above it (0 = never shed)")

	fs.DurationVar(&c.Churn, "churn", 0, "background churn interval (0 = off)")
	fs.Int64Var(&c.ChurnSeed, "churn-seed", 42, "churn generator seed")
	fs.Float64Var(&c.HealTarget, "heal-target", 0, "connectivity the healer restores (0 = initial coalition's)")
	fs.BoolVar(&c.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")

	fs.DurationVar(&c.SLO.QueryP99, "slo-query-p99", 0, "enable the SLO plane with this query-latency objective (0 = off); see GET /slo")
	fs.Float64Var(&c.SLO.CrossingMs, "slo-crossing-ms", 50, "per-region stitched-segment latency budget in ms (with -regions)")
	fs.DurationVar(&c.SLO.Window, "slo-window", time.Hour, "burn-rate base window (the fast pair's long window; scale down for smoke tests)")
	fs.DurationVar(&c.SLO.Every, "slo-every", 0, "SLO evaluation tick (default slo-window/48, floored at 50ms)")
	fs.StringVar(&c.SLO.DumpPath, "slo-dump", "", "dump the flight recorder to this file when a burn-rate alert fires")

	fs.IntVar(&c.Regions, "regions", 0, "serve an in-process federation of N broker regions under /federation/* (0 = off)")
	fs.Float64Var(&c.CrossingCost, "crossing-cost", 2.0, "federation IXP crossing cost (ms)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "brokerd:", err)
		os.Exit(1)
	}
}

func loadTopology(o *options) (*topology.Topology, error) {
	if o.topoFile == "" {
		return topology.GenerateInternet(topology.InternetConfig{Scale: o.scale, Seed: o.cfg.Seed})
	}
	f, err := os.Open(o.topoFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return topology.Load(f)
}

func run(o *options) error {
	top, err := loadTopology(o)
	if err != nil {
		return err
	}
	cfg := o.cfg
	d, err := daemon.New(top, cfg)
	if err != nil {
		return err
	}
	if cfg.LeaseTTL > 0 {
		fmt.Printf("brokerd: session leases on (ttl %v): heartbeat via POST /sessions/{id}/renew\n", cfg.LeaseTTL)
	}
	if cfg.Regions > 0 {
		fmt.Printf("brokerd: federation of %d regions (%s), crossing cost %.1fms\n",
			cfg.Regions, d.FederationSummary(), cfg.CrossingCost)
	}
	if cfg.SLO.QueryP99 > 0 {
		fmt.Printf("brokerd: slo plane on (query p99 < %v, base window %v): GET /slo\n", cfg.SLO.QueryP99, cfg.SLO.Window)
	}
	snap := d.Snapshot()
	fmt.Printf("brokerd: %d nodes, %d brokers, %.2f%% connectivity, listening on %s\n",
		top.NumNodes(), snap.NumBrokers(), 100*snap.Connectivity(), o.addr)
	if cfg.Pprof {
		// Mutex/block profiling are off until a sampling rate is set; the
		// contention recipe in EXPERIMENTS.md relies on these endpoints
		// being populated whenever the profiler is exposed at all.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100_000) // one sample per 100µs blocked
		fmt.Println("brokerd: pprof profiling exposed under /debug/pprof/")
	}
	if cfg.Churn > 0 {
		fmt.Printf("brokerd: background churn every %v (seed %d)\n", cfg.Churn, cfg.ChurnSeed)
	}
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: SIGINT/SIGTERM stop the daemon's jobs, stop
	// accepting connections and drain in-flight requests for up to -drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		d.Run(ctx)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		done <- httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("brokerd: drained, bye")
	return nil
}
