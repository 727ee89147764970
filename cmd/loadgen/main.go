// Command loadgen replays a Zipf-distributed path-query demand against the
// broker coalition and reports achieved QPS, cache hit rate, and latency
// quantiles. It runs closed-loop: each worker waits for its previous query
// before issuing the next, so reported QPS is sustainable throughput, not
// an open-loop arrival rate.
//
// Against a live brokerd:
//
//	brokerd -scale 0.1 -k 100 -addr :8080 &
//	loadgen -addr http://localhost:8080 -c 32 -d 10s
//
// In-process (no HTTP; boots the same internal/daemon brokerd serves and
// queries its query plane directly):
//
//	loadgen -scale 0.1 -k 100 -c 32 -d 10s
//
// In-process with topology churn interleaved (measures availability under
// self-healing: the daemon runs brokerd's -churn job every -churn-every,
// applying and healing a Poisson burst of mean 4 events, while the workers
// keep querying; bursts and repair quantiles come from the healer's own
// heal-pass count and healer_repair_seconds):
//
//	loadgen -scale 0.1 -k 100 -c 32 -d 10s -churn-every 500ms
//
// The -abandon lifecycle scenario boots a daemon too; -regions is a scenario
// harness over federation.Fabric (fault-injected peer bus, forced region
// crash), not a daemon.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"brokerset/internal/daemon"
	"brokerset/internal/obs"
	"brokerset/internal/routing"
	"brokerset/internal/topology"
	"brokerset/internal/workload"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags in, report out.
func run(argv []string, out io.Writer) (*workload.Report, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "", "brokerd base URL (empty: run in-process)")
		scale   = fs.Float64("scale", 0.1, "in-process topology scale")
		seed    = fs.Int64("seed", 1, "topology + demand seed")
		k       = fs.Int("k", 100, "in-process broker budget")
		conc    = fs.Int("c", 16, "closed-loop worker count")
		dur     = fs.Duration("d", 5*time.Second, "run duration")
		reqs    = fs.Int("n", 0, "request budget (overrides -d when > 0)")
		zipf    = fs.Float64("zipf", 1.1, "demand Zipf exponent (> 1)")
		maxhops = fs.Int("maxhops", 0, "query hop bound (0 = unbounded)")
		minbw   = fs.Float64("minbw", 0, "query min available Gbps")
		timeout = fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
		retries = fs.Int("retries", 2, "max retries per query on 429 shed (HTTP mode)")
		retryWt = fs.Duration("retry-wait", 250*time.Millisecond, "cap on per-attempt Retry-After wait")

		churnEvery = fs.Duration("churn-every", 0, "in-process churn burst interval (0 = off)")
		churnSeed  = fs.Int64("churn-seed", 42, "churn generator seed")

		abandon  = fs.Float64("abandon", 0, "lifecycle scenario: fraction of sessions that stop heartbeating instead of tearing down (0 = off)")
		leaseTTL = fs.Duration("lease-ttl", 300*time.Millisecond, "lifecycle scenario session lease TTL")

		slowK     = fs.Int("slow-k", 0, "report the K slowest requests with their trace IDs (0 = off)")
		sloP99    = fs.Duration("slo-p99", 0, "federation mode: arm a client-side SLO with this stitched-query latency budget (0 = off)")
		sloWindow = fs.Duration("slo-window", 2*time.Second, "federation mode: SLO burn-rate base window")

		regions   = fs.Int("regions", 0, "in-process federation: broker regions (0 = off)")
		fedLoss   = fs.Float64("fed-loss", 0, "federation inter-region bus drop rate")
		fedDup    = fs.Float64("fed-dup", 0, "federation inter-region bus duplicate rate")
		fedCrash  = fs.Bool("fed-crash", false, "crash a transit region at T/3, recover at 2T/3")
		fedEvery  = fs.Duration("fed-every", 20*time.Millisecond, "federation driver tick interval")
		crossing  = fs.Float64("crossing-cost", 2.0, "federation IXP crossing cost (ms)")
		fedRemote = fs.Bool("federation", false, "HTTP mode: query /federation/path instead of /path")
	)
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}

	opts := routing.Options{MaxHops: *maxhops, MinBandwidth: *minbw}
	cfg := workload.Config{
		Concurrency: *conc,
		Duration:    *dur,
		Requests:    *reqs,
		Zipf:        *zipf,
		Seed:        *seed,
		SlowK:       *slowK,
	}

	if *sloP99 > 0 && *regions <= 0 {
		return nil, fmt.Errorf("-slo-p99 is federation-mode only (set -regions)")
	}
	var (
		target  workload.Target
		top     *topology.Topology
		churned *daemon.Daemon // the daemon whose churn job -churn-every runs
		fed     *fedStack
		// slowTracer, when set, lets the -slow-k report break each slow
		// trace down into per-plane span durations.
		slowTracer *obs.Tracer
		err        error
	)
	switch {
	case *abandon > 0:
		if *addr != "" || *regions > 0 || *churnEvery > 0 {
			return nil, fmt.Errorf("-abandon is in-process only and exclusive with -addr/-regions/-churn-every")
		}
		if *abandon > 1 {
			return nil, fmt.Errorf("-abandon is a fraction in (0, 1], got %g", *abandon)
		}
		top, err = topology.GenerateInternet(topology.InternetConfig{Scale: *scale, Seed: *seed})
		if err != nil {
			return nil, err
		}
		return nil, runLifecycle(top, *k, *conc, *dur, *leaseTTL, *abandon, *seed, out)
	case *addr != "":
		if *churnEvery > 0 {
			return nil, fmt.Errorf("-churn-every is in-process only (use brokerd -churn against a live server)")
		}
		// Demand generation needs the same topology shape the server runs;
		// regenerate it locally from the shared scale/seed convention.
		top, err = topology.GenerateInternet(topology.InternetConfig{Scale: *scale, Seed: *seed})
		if err != nil {
			return nil, err
		}
		path := ""
		if *fedRemote {
			path = "/federation/path"
		}
		target = &workload.HTTPTarget{
			Base:         *addr,
			Path:         path,
			Opts:         opts,
			Client:       &http.Client{Timeout: *timeout},
			MaxRetries:   *retries,
			MaxRetryWait: *retryWt,
		}
		fmt.Fprintf(out, "loadgen: %d workers -> %s (zipf %.2f over %d nodes)\n",
			cfg.Concurrency, *addr, *zipf, top.NumNodes())
	case *regions > 0:
		if *churnEvery > 0 {
			return nil, fmt.Errorf("-churn-every and -regions are mutually exclusive (-fed-crash injects federation failures)")
		}
		fed, err = newFedStack(*scale, *seed, *regions, *k, *crossing, *fedLoss, *fedDup)
		if err != nil {
			return nil, err
		}
		if *sloP99 > 0 {
			fed.enableSLO(*sloP99, *sloWindow)
			fmt.Fprintf(out, "loadgen: slo armed (stitched query p99 < %v, base window %v)\n", *sloP99, *sloWindow)
		}
		top = fed.top
		target = &fedTarget{stack: fed, opts: opts, maxRetries: *retries, maxWait: *retryWt}
		fmt.Fprintf(out, "loadgen: in-process federation, %d regions over %d nodes, %d workers (loss %.1f%%, dup %.1f%%, crash %v)\n",
			*regions, top.NumNodes(), cfg.Concurrency, 100**fedLoss, 100**fedDup, *fedCrash)
	default:
		top, err = topology.GenerateInternet(topology.InternetConfig{Scale: *scale, Seed: *seed})
		if err != nil {
			return nil, err
		}
		d, err := daemon.New(top, daemon.Config{K: *k, ChurnSeed: *churnSeed, Churn: *churnEvery})
		if err != nil {
			return nil, err
		}
		pt := &workload.PlaneTarget{Plane: d.QueryPlane(), Opts: opts}
		if *slowK > 0 {
			// Trace the in-process queries so the slowest-request table can
			// name traces and break them into per-plane durations.
			slowTracer = obs.NewTracer(1 << 13)
			pt.Tracer = slowTracer
		}
		target = pt

		if *churnEvery > 0 {
			churned = d
			fmt.Fprintf(out, "loadgen: churn every %v, Poisson bursts of mean 4 events (seed %d)\n",
				*churnEvery, *churnSeed)
		}
		fmt.Fprintf(out, "loadgen: in-process, %d nodes, %d brokers, %d workers (zipf %.2f)\n",
			top.NumNodes(), d.Snapshot().NumBrokers(), cfg.Concurrency, *zipf)
	}

	newGen := func(w int) (*workload.PairGen, error) {
		return workload.NewPairGen(top, cfg.Zipf, cfg.Seed+int64(w)*7919)
	}
	// At most one driver runs beside the workers, for the run's duration:
	// the fabric's or the daemon's own background jobs.
	var drive func(ctx context.Context)
	switch {
	case fed != nil:
		drive = func(ctx context.Context) { fed.drive(ctx.Done(), *dur, *fedEvery, *fedCrash, *seed) }
	case churned != nil:
		drive = churned.Run
	}
	driving, stopDriving := context.WithCancel(context.Background())
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		if drive != nil {
			drive(driving)
		}
	}()
	rep, err := workload.Run(target, newGen, cfg)
	stopDriving()
	<-driven
	if err != nil {
		return nil, err
	}
	if churned != nil {
		// Every heal pass in this mode is the churn job's: one per burst.
		hm := churned.HealerMetrics()
		rep.ChurnBursts = int(hm.HealPasses.Load())
		rep.Availability = float64(rep.Requests-rep.Errors-rep.NotFound) / float64(rep.Requests)
		rep.RepairP50, rep.RepairP95 = hm.Repairs.Quantile(0.50), hm.Repairs.Quantile(0.95)
	}
	fmt.Fprintln(out, rep)
	if fed != nil {
		if err := fed.finish(out); err != nil {
			return rep, err
		}
		slowTracer = fed.tracer
	}
	if len(rep.Slowest) > 0 && slowTracer != nil {
		printSlowPlanes(out, slowTracer, rep.Slowest)
	}

	// Churn mode: show what the healing traffic cost the control plane —
	// 2PC retries, breaker activity, and WAL recoveries.
	if churned != nil {
		st := churned.PlaneStats()
		fmt.Fprintf(out, "ctrl:     %d msgs, %d commits, %d aborts, %d repaths, %d retries, %d timeouts, %d breaker trips, %d recoveries\n",
			st.Messages, st.Commits, st.Aborts, st.Repaths, st.Retries, st.Timeouts, st.BreakerTrips, st.Recoveries)
	}

	// When driving a live server, fold in its own view of the run.
	if *addr != "" {
		if st, err := workload.FetchServerStats(*addr, &http.Client{Timeout: *timeout}); err == nil {
			queries := st["queryplane_queries_total"]
			fmt.Fprintf(out, "server:   %.0f queries, %.1f%% hit rate, %.0f shed, %.0f evictions, gen %.0f\n",
				queries, 100*st["queryplane_hits_total"]/max(queries, 1), st["queryplane_shed_total"],
				st["queryplane_evictions_total"], st["queryplane_cache_generation"])
		}
	}
	return rep, nil
}

// printSlowPlanes renders, for each slow request whose trace is still in
// the ring, the time spent per plane — span durations grouped by the name
// prefix before the first dot (queryplane, ctrlplane, federation, ...) —
// so a slow client-side number decomposes into where it was spent.
func printSlowPlanes(out io.Writer, tracer *obs.Tracer, slow []workload.SlowRequest) {
	for _, s := range slow {
		if s.TraceID == 0 {
			continue
		}
		spans := tracer.Trace(s.TraceID)
		if len(spans) == 0 {
			continue
		}
		byPlane := make(map[string]time.Duration)
		var order []string
		for _, sp := range spans {
			plane := sp.Name
			if i := strings.IndexByte(plane, '.'); i > 0 {
				plane = plane[:i]
			}
			if _, ok := byPlane[plane]; !ok {
				order = append(order, plane)
			}
			byPlane[plane] += sp.Duration
		}
		fmt.Fprintf(out, "trace %d (%v):", s.TraceID, s.Duration.Round(time.Microsecond))
		for _, plane := range order {
			fmt.Fprintf(out, "  %s=%v", plane, byPlane[plane].Round(time.Microsecond))
		}
		fmt.Fprintln(out)
	}
}
