// Command promcheck validates Prometheus text exposition read from stdin:
// it exits 0 when every line parses (HELP/TYPE comments, sample syntax,
// label syntax, float values, summary/histogram children typed by their
// base family), and exits 1 naming the first offending line otherwise.
//
// -require takes a comma-separated list of metric family names that must
// be present in the (valid) exposition, each passing the repo's naming
// gate; missing families fail the check. CI uses it to assert that the
// families the docs and dashboards name survive a live scrape.
//
// CI pipes a live brokerd's /metrics scrape through it:
//
//	curl -fsS localhost:8080/metrics | promcheck
//	curl -fsS localhost:8080/metrics | promcheck -require queryplane_hits_total,queryplane_latency_seconds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"brokerset/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags and exposition in, error out.
func run(argv []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("promcheck", flag.ContinueOnError)
	require := fs.String("require", "", "comma-separated metric families that must be present")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	// Validation needs one pass, the presence check another: buffer stdin.
	text, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	if err := obs.ValidateExposition(strings.NewReader(string(text))); err != nil {
		return err
	}

	var missing []string
	if *require != "" {
		present := familyNames(string(text))
		for _, fam := range strings.Split(*require, ",") {
			fam = strings.TrimSpace(fam)
			if fam == "" {
				continue
			}
			if err := obs.CheckName(fam); err != nil {
				return fmt.Errorf("required family %q: %w", fam, err)
			}
			if !present[fam] {
				missing = append(missing, fam)
			}
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition valid but missing required families: %s", strings.Join(missing, ", "))
	}
	fmt.Fprintln(out, "promcheck: exposition ok")
	return nil
}

// familyNames extracts the set of sample family names from a valid
// exposition: the first token of each non-comment line, stripped of labels
// and of summary/histogram child suffixes.
func familyNames(text string) map[string]bool {
	present := make(map[string]bool)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		present[name] = true
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				present[base] = true
			}
		}
	}
	return present
}
