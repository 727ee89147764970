// Command benchsuite is the repository's benchmark: one harness that boots
// a fresh brokerd per workload at the paper's Table-2 tier, drives it over
// loopback HTTP with two closed-loop clients, all on one CPU, verifies every
// answer off the clock, and reports end-to-end metrics plus a per-layer
// latency budget from a separate traced in-process replay. See README.md in
// this directory.
//
// Usage:
//
//	go run ./cmd/benchsuite                         # all five workloads, JSON document + table
//	go run ./cmd/benchsuite -workload path_hot      # one workload; last stdout line is the contract result
//	go run ./cmd/benchsuite -trace 1 -workload ...  # adds the traced replay, reports per-layer metrics
//	go run ./cmd/benchsuite -repeat 10 -json a.json # ten seeds per workload, for -compare
//	go run ./cmd/benchsuite -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"brokerset/internal/topology"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: path_cold, path_hot, session_mix, churn_heal, fed_session or all")
		seed         = flag.Int64("seed", 1, "request-generator seed (the topology seed stays 1)")
		seconds      = flag.Int("seconds", defaultSeconds, "target length of each measured phase; sets the fixed op counts")
		trace        = flag.Int("trace", 0, "1 = also run the traced in-process replay and report the per-layer metrics")
		tierName     = flag.String("tier", "table2", "topology tier: table2 (the benchmark) or smoke")
		repeat       = flag.Int("repeat", 1, "runs per workload, on seeds seed..seed+repeat-1")
		jsonOut      = flag.String("json", "", "write the JSON document to this file (default: standard output when -workload is all)")
		buildDir     = flag.String("build-dir", ".bench_build", "where the brokerd binary and trace files go")
		oneCPU       = flag.Bool("onecpu", true, "confine the harness and brokerd to one CPU (what the rates and bounds assume)")
		compare      = flag.Bool("compare", false, "compare two JSON documents: benchsuite -compare a.json b.json")
		contract     = flag.Bool("contract", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	)
	flag.Parse()
	if *contract {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkContract()); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchsuite -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	t, ok := tiers[*tierName]
	if !ok {
		fatalf("unknown tier %q", *tierName)
	}
	var selected []*workloadSpec
	if *workloadName == "all" {
		selected = workloads
	} else if w := workloadByName(*workloadName); w != nil {
		selected = []*workloadSpec{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}
	if *seconds < 1 || *repeat < 1 {
		fatalf("-seconds and -repeat must be at least 1")
	}

	if *oneCPU {
		if err := confineToOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: not confined to one CPU, expect wider spreads: %v\n", err)
		}
	}
	bin, err := buildBrokerd(*buildDir)
	if err != nil {
		fatalf("%v", err)
	}
	top, err := topology.GenerateTier(t.name, topoSeed)
	if err != nil {
		fatalf("%v", err)
	}

	doc := newDocument(t, *seconds)
	correct := true
	var last *runRecord
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			cfg := runConfig{
				w: w, tier: t, seed: *seed + int64(i), seconds: *seconds,
				hot: w.hot, resident: w.resident, setups: defaultSetups, brokerd: bin,
			}
			start := time.Now()
			out, err := runWorkload(cfg, top)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			if *trace == 1 {
				traceFile := filepath.Join(*buildDir, "out", fmt.Sprintf("trace-%s.jsonl", w.name))
				if err := tracedRun(cfg, top, out, traceFile, os.Stderr); err != nil {
					fatalf("%s: traced run: %v", w.name, err)
				}
				fmt.Fprintf(os.Stderr, "trace written to %s\n", traceFile)
			}
			for _, p := range out.problems {
				fmt.Fprintf(os.Stderr, "FAIL %s\n", p)
			}
			last = doc.add(w, cfg.seed, out, *trace == 1)
			correct = correct && last.Correct
			fmt.Fprintf(os.Stderr, "%s seed %d done in %.1fs\n", w.name, cfg.seed, time.Since(start).Seconds())
		}
	}
	doc.printTable(os.Stderr)

	if *jsonOut != "" || *workloadName == "all" {
		sink := os.Stdout
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			sink = f
		}
		enc := json.NewEncoder(sink)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatalf("%v", err)
		}
	}
	if *workloadName != "all" {
		// The driver's contract: one JSON object as the last line.
		line, err := json.Marshal(last.contractLine(*trace == 1))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

const (
	// defaultSetups: set-up runs this many times per run so setup_s is a
	// median.
	defaultSetups = 3
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 12
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchsuite: "+format+"\n", args...)
	os.Exit(2)
}
