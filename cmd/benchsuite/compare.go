package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the spread of a set of runs is defined. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judgement is one workload × metric comparison. worse is how far B's
// median is on the wrong side of A's and spread the wider of the two
// interquartile ranges, both as shares of A's median (absolute numbers for
// a metric with an absolute bound).
type judgement struct {
	medA, medB, worse, spread, bound float64
	verdict                          string
}

// judge compares baseline runs a with candidate runs b of one metric. A
// difference beyond the bound is a regression only if it also clears the
// spread; within the bound it is ok only if the spread could have shown a
// regression.
func judge(m metricSpec, a, b []float64) judgement {
	j := judgement{medA: median(a), medB: median(b), bound: m.absBound}
	j.worse = j.medB - j.medA
	if m.better == "higher" {
		j.worse = -j.worse
	}
	for _, v := range [][]float64{a, b} {
		if len(v) >= 2 {
			q1, q3 := quartiles(v)
			j.spread = max(j.spread, q3-q1)
		}
	}
	if j.bound == 0 {
		j.bound = m.bound
		if j.medA != 0 {
			j.worse /= math.Abs(j.medA)
			j.spread /= math.Abs(j.medA)
		}
	}
	switch {
	case j.worse > j.bound && j.worse > j.spread:
		j.verdict = verdictRegressed
	case j.worse > j.bound || j.spread > j.bound:
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictOK
	}
	return j
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if d.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaVersion)
	}
	return &d, nil
}

func (d *document) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// change, the bound and a verdict. It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	if a.Tier != b.Tier || a.Seconds != b.Seconds || a.NProc != b.NProc {
		return false, fmt.Errorf("documents differ in tier, seconds or CPUs (%s/%ds/%d vs %s/%ds/%d): not comparable",
			a.Tier, a.Seconds, a.NProc, b.Tier, b.Seconds, b.NProc)
	}
	fmt.Fprintf(w, "A: %s commit %.12s   B: %s commit %.12s\n", pathA, a.Commit, pathB, b.Commit)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tworse by\tspread\tbound\tverdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.name, m.name), b.values(wl.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			j := judge(m, va, vb)
			regressed = regressed || j.verdict == verdictRegressed
			pct := func(x float64) string {
				if m.absBound > 0 {
					return fmt.Sprintf("%+.4f", x)
				}
				return fmt.Sprintf("%+.1f%%", 100*x)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%s\n",
				wl.name, m.name, m.unit, j.medA, j.medB, pct(j.worse), pct(j.spread), pct(j.bound), j.verdict)
		}
	}
	return regressed, tw.Flush()
}
