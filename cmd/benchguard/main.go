// Command benchguard compares `go test -bench` output against a committed
// baseline and fails on regression. It reads benchmark output from stdin,
// extracts ns/op (and, under -benchmem, B/op) per benchmark, taking the best
// of repeated -count runs to damp scheduler noise, and exits 1 if any
// benchmark named in the baseline is missing from the output or slower — or,
// where the baseline says, hungrier — than baseline × max-ratio.
//
// CI uses it as a contention smoke test for the lock-free query path:
//
//	go test -run '^$' -bench '^BenchmarkQueryUnderChurn$' -count=3 ./internal/daemon/ |
//	    benchguard -baseline internal/daemon/testdata/bench_baseline.json -max-ratio 2.0
//
// The baseline file maps benchmark names (sub-benchmark path included,
// GOMAXPROCS suffix stripped) to nanoseconds per operation, and optionally
// to bytes per operation — time depends on the runner, bytes do not, so an
// allocation that grows with the input fails on a fast machine too:
//
//	{"BenchmarkQueryUnderChurn": {"ns_per_op": 540},
//	 "BenchmarkTable2SessionCycle": {"ns_per_op": 53000, "bytes_per_op": 40400}}
//
// Ratios compare the same benchmark across commits, so the guard tolerates
// absolute speed differences between machines as long as the baseline was
// recorded on hardware within max-ratio of the runner's. A 2x bar is loose
// enough for runner variance but far below the >100x cliff a reintroduced
// global lock causes on this benchmark.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Baseline entry: nanoseconds per operation recorded at the commit that
// last touched the benchmarked path.
type baselineEntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp, when set, guards B/op by the same ratio; the benchmark
	// must then run with -benchmem (or call b.ReportAllocs).
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// Note is free-form provenance (machine, date, commit) and is ignored.
	Note string `json:"note,omitempty"`
}

// benchLine matches one result line of go test -bench output, e.g.
//
//	BenchmarkQueryUnderChurn-8   2201848   517.7 ns/op
//	BenchmarkQueryPlaneHit/shards=4-8   5882352   204.8 ns/op
//	BenchmarkSetupTeardown-8   3120   372670 ns/op   8123 B/op   92 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op(?:.*?\s([0-9.eE+]+) B/op)?`)

// measurement is the best (minimum) of each unit over a benchmark's runs;
// hasBytes is false when no run reported B/op.
type measurement struct {
	ns, bytes float64
	hasBytes  bool
}

// parseBench extracts the best ns/op and B/op per benchmark name from
// go test -bench output.
func parseBench(r io.Reader) (map[string]measurement, error) {
	best := make(map[string]measurement)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("benchguard: bad ns/op on %q: %v", sc.Text(), err)
		}
		cur, seen := best[m[1]]
		if !seen || ns < cur.ns {
			cur.ns = ns
		}
		if m[3] != "" {
			bytes, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad B/op on %q: %v", sc.Text(), err)
			}
			if !cur.hasBytes || bytes < cur.bytes {
				cur.bytes, cur.hasBytes = bytes, true
			}
		}
		best[m[1]] = cur
	}
	return best, sc.Err()
}

// check compares measured results against the baseline and returns one
// human-readable line per baseline benchmark plus the names that failed.
func check(baseline map[string]baselineEntry, measured map[string]measurement, maxRatio float64) (report []string, failed []string) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, baseBytes := baseline[name].NsPerOp, baseline[name].BytesPerOp
		m, ok := measured[name]
		got, gotBytes := m.ns, m.bytes
		switch {
		case base <= 0:
			report = append(report, fmt.Sprintf("FAIL %s: baseline ns_per_op %v not positive", name, base))
			failed = append(failed, name)
		case !ok:
			report = append(report, fmt.Sprintf("FAIL %s: not found in benchmark output", name))
			failed = append(failed, name)
		case got > base*maxRatio:
			report = append(report, fmt.Sprintf("FAIL %s: %.1f ns/op vs baseline %.1f (%.2fx > %.2fx allowed)",
				name, got, base, got/base, maxRatio))
			failed = append(failed, name)
		case baseBytes > 0 && !m.hasBytes:
			report = append(report, fmt.Sprintf("FAIL %s: baseline guards bytes_per_op but the output has no B/op (run with -benchmem)", name))
			failed = append(failed, name)
		case baseBytes > 0 && gotBytes > baseBytes*maxRatio:
			report = append(report, fmt.Sprintf("FAIL %s: %.0f B/op vs baseline %.0f (%.2fx > %.2fx allowed)",
				name, gotBytes, baseBytes, gotBytes/baseBytes, maxRatio))
			failed = append(failed, name)
		case baseBytes > 0:
			report = append(report, fmt.Sprintf("ok   %s: %.1f ns/op vs baseline %.1f (%.2fx), %.0f B/op vs %.0f (%.2fx)",
				name, got, base, got/base, gotBytes, baseBytes, gotBytes/baseBytes))
		default:
			report = append(report, fmt.Sprintf("ok   %s: %.1f ns/op vs baseline %.1f (%.2fx)",
				name, got, base, got/base))
		}
	}
	return report, failed
}

func main() {
	baselinePath := flag.String("baseline", "", "path to baseline JSON (required)")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when measured ns/op (or a guarded B/op) exceeds baseline by this factor")
	flag.Parse()
	if *baselinePath == "" || *maxRatio <= 0 {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required and -max-ratio must be positive")
		os.Exit(2)
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	var baseline map[string]baselineEntry
	if err := json.Unmarshal(raw, &baseline); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s names no benchmarks\n", *baselinePath)
		os.Exit(2)
	}

	measured, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	report, failed := check(baseline, measured, *maxRatio)
	fmt.Println(strings.Join(report, "\n"))
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d benchmark(s) regressed past %.2fx: %s\n",
			len(failed), *maxRatio, strings.Join(failed, ", "))
		os.Exit(1)
	}
}
