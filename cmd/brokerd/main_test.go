package main

import (
	"flag"
	"testing"
)

// TestFlagsStable pins brokerd's flag names and defaults. cmd/benchsuite
// boots the binary with -addr -drain -scale -seed -k -regions and every CI
// job with a line of its own; a renamed flag or a moved default breaks them
// at run time, not at build time.
func TestFlagsStable(t *testing.T) {
	want := map[string]string{
		"addr": ":8080", "topo": "", "scale": "0.1", "seed": "1", "k": "100", "drain": "10s",
		"lease-ttl": "0s", "lease-sweep": "0s", "setup-queue": "1024",
		"churn": "0s", "churn-seed": "42", "heal-target": "0", "pprof": "false",
		"slo-query-p99": "0s", "slo-crossing-ms": "50", "slo-window": "1h0m0s", "slo-every": "0s", "slo-dump": "",
		"regions": "0", "crossing-cost": "2",
	}
	fs := flag.NewFlagSet("brokerd", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		def, ok := want[f.Name]
		if !ok {
			t.Errorf("unexpected flag -%s", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("flag -%s is gone", name)
	}
}
