// Command benchguard compares `go test -bench` output against a committed
// baseline and fails on regression. It reads benchmark output from stdin,
// extracts ns/op (and, under -benchmem, B/op, and any custom byte metric a
// benchmark reports with a unit ending in "-B" or count with one ending in
// "/op") per benchmark, taking the best of repeated -count runs to damp
// scheduler noise, and exits 1 if any benchmark named in the baseline is
// missing from the output or slower — or, where the baseline says, hungrier
// — than baseline × max-ratio, or does more counted work than its baseline
// allows.
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
// An entry may also guard custom byte metrics by unit, and then need not
// guard time at all — a resident-bytes rung reports what a boot keeps, not
// how long it took:
//
//	{"BenchmarkTable2Resident/flat": {"metrics": {"live-B": 62000000, "ctrlplane-B": 11000000}}}
//
// And it may guard work counts — custom units ending in "/op" other than
// B/op and allocs/op, such as candidates scored per churn post. A count does
// not depend on the machine, so it is held to countRatio rather than
// -max-ratio:
//
//	{"BenchmarkTable2ChurnPost": {"ns_per_op": 9500000, "counts": {"scored/op": 6000}}}
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
	NsPerOp float64 `json:"ns_per_op,omitempty"`
	// BytesPerOp, when set, guards B/op by the same ratio; the benchmark
	// must then run with -benchmem (or call b.ReportAllocs).
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	// Metrics guards custom byte metrics (b.ReportMetric units ending in
	// "-B") by the same ratio; a unit the output lacks fails. An entry with
	// metrics may leave ns_per_op out.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Counts guards work counts (b.ReportMetric units ending in "/op") at
	// countRatio; a unit the output lacks fails.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Note is free-form provenance (machine, date, commit) and is ignored.
	Note string `json:"note,omitempty"`
}

// countRatio bounds every guarded work count. A count is the same on any
// machine, so it needs no room for runner speed: 5 % lets small deliberate
// changes through and stops a lost filter or a doubled pass.
const countRatio = 1.05

// benchLine matches one result line of go test -bench output, e.g.
//
//	BenchmarkQueryUnderChurn-8   2201848   517.7 ns/op
//	BenchmarkQueryPlaneHit/shards=4-8   5882352   204.8 ns/op
//	BenchmarkSetupTeardown-8   3120   372670 ns/op   8123 B/op   92 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.eE+]+) ns/op(?:.*?\s([0-9.eE+]+) B/op)?`)

// measurement is the best (minimum) of each unit over a benchmark's runs;
// hasBytes is false when no run reported B/op, metrics holds the custom
// byte metrics by unit and counts the custom per-op counts.
type measurement struct {
	ns, bytes       float64
	hasBytes        bool
	metrics, counts map[string]float64
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
		// After the name and the iteration count a result line is value/unit
		// pairs; a unit ending in -B is a custom byte metric, and one ending
		// in /op, past the three go test reports itself, a count.
		fields := strings.Fields(sc.Text())
		for i := 2; i+1 < len(fields); i += 2 {
			unit, into := fields[i+1], &cur.metrics
			switch {
			case strings.HasSuffix(unit, "-B"):
			case strings.HasSuffix(unit, "/op") && unit != "ns/op" && unit != "B/op" && unit != "allocs/op":
				into = &cur.counts
			default:
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad %s on %q: %v", unit, sc.Text(), err)
			}
			if *into == nil {
				*into = make(map[string]float64)
			}
			if old, seen := (*into)[unit]; !seen || v < old {
				(*into)[unit] = v
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
		base := baseline[name]
		m, ok := measured[name]
		var bad, good []string
		guardAt := func(ratio float64, unit, format string, got, want float64) {
			line := fmt.Sprintf(format+" %s vs baseline "+format+" (%.2fx", got, unit, want, got/want)
			if got > want*ratio {
				bad = append(bad, fmt.Sprintf("%s > %.2fx allowed)", line, ratio))
			} else {
				good = append(good, line+")")
			}
		}
		guard := func(unit, format string, got, want float64) { guardAt(maxRatio, unit, format, got, want) }
		switch {
		case base.NsPerOp <= 0 && len(base.Metrics) == 0 && len(base.Counts) == 0:
			bad = append(bad, fmt.Sprintf("baseline ns_per_op %v not positive", base.NsPerOp))
		case !ok:
			bad = append(bad, "not found in benchmark output")
		default:
			if base.NsPerOp > 0 {
				guard("ns/op", "%.1f", m.ns, base.NsPerOp)
			}
			switch {
			case base.BytesPerOp > 0 && !m.hasBytes:
				bad = append(bad, "baseline guards bytes_per_op but the output has no B/op (run with -benchmem)")
			case base.BytesPerOp > 0:
				guard("B/op", "%.0f", m.bytes, base.BytesPerOp)
			}
			units := make([]string, 0, len(base.Metrics))
			for unit := range base.Metrics {
				units = append(units, unit)
			}
			sort.Strings(units)
			for _, unit := range units {
				want := base.Metrics[unit]
				got, has := m.metrics[unit]
				switch {
				case !strings.HasSuffix(unit, "-B") || want <= 0:
					bad = append(bad, fmt.Sprintf("baseline metric %q: %v (want a positive byte count under a unit ending in -B)", unit, want))
				case !has:
					bad = append(bad, fmt.Sprintf("metric %s not found in benchmark output", unit))
				default:
					guard(unit, "%.0f", got, want)
				}
			}
			counts := make([]string, 0, len(base.Counts))
			for unit := range base.Counts {
				counts = append(counts, unit)
			}
			sort.Strings(counts)
			for _, unit := range counts {
				want := base.Counts[unit]
				got, has := m.counts[unit]
				switch {
				case want <= 0:
					bad = append(bad, fmt.Sprintf("baseline count %q: %v (want a positive count)", unit, want))
				case !has:
					bad = append(bad, fmt.Sprintf("count %s not found in benchmark output", unit))
				default:
					guardAt(countRatio, unit, "%.0f", got, want)
				}
			}
		}
		if len(bad) > 0 {
			report = append(report, fmt.Sprintf("FAIL %s: %s", name, strings.Join(bad, "; ")))
			failed = append(failed, name)
		} else {
			report = append(report, fmt.Sprintf("ok   %s: %s", name, strings.Join(good, ", ")))
		}
	}
	return report, failed
}

func main() {
	baselinePath := flag.String("baseline", "", "path to baseline JSON (required)")
	maxRatio := flag.Float64("max-ratio", 2.0, "fail when measured ns/op (or a guarded B/op or byte metric) exceeds baseline by this factor")
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
