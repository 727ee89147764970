package daemon

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"testing"

	"brokerset/internal/topology"
)

// BenchmarkTable2Resident is the resident-bytes rung: what the benchmark's
// daemon keeps live on the Table-2 tier (MaxSG k=1064), by layer. Each
// sub-benchmark boots daemon.New — flat, and with Regions: 3 as fed_session
// runs it — from runtime.MemProfileRate = 1 on, so every allocation is
// profiled, forces GC, and attributes the in-use bytes of runtime.MemProfile
// to layers: a layer is the package of the innermost brokerset/internal frame
// of the allocating stack, graph.NewBitset's frame passed over so that a
// bitset's bytes count for the layer that holds it. It reports one "<layer>-B" metric per layer and
// "live-B", the runtime's /gc/heap/live:bytes. The sessions=N variants
// establish N flat sessions after the boot and add "session-B", the live bytes
// a resident session costs (over the sessions actually established, reported
// as "sessions").
//
// The layers sum to live-B less "glue-B": the bytes of stacks with no
// brokerset/internal frame (the runtime's, the testing package's), of stacks
// whose innermost such frame is in a _test.go file, and live bytes the profile
// does not see (allocated before the rate was set, or the rounding of tiny
// allocations). The glue is held under residentGlue of live-B, or the rung
// fails. Run it once per sub-benchmark:
//
//	go test -run '^$' -bench '^BenchmarkTable2Resident$' -benchtime=1x ./internal/daemon/
func BenchmarkTable2Resident(b *testing.B) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, c := range []struct {
		name     string
		cfg      Config
		sessions int
	}{
		{"flat", Config{K: 1064}, 0},
		{"regions=3", Config{K: 1064, Regions: 3}, 0},
		{"sessions=1000", Config{K: 1064}, 1000},
		{"sessions=10000", Config{K: 1064}, 10000},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				top, err := topology.GenerateTier("table2", 1)
				if err != nil {
					b.Fatal(err)
				}
				srv, err := New(top, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				before := liveHeap()
				established := 0
				ctx := context.Background()
				for _, p := range benchPairs(srv, c.sessions) {
					if _, err := srv.Setup(ctx, p[0], p[1], 0.01); err == nil {
						established++
					}
				}
				heap := attributeHeap()
				runtime.KeepAlive(srv)
				if err := heap.check(); err != nil {
					b.Fatal(err)
				}
				if i < b.N-1 {
					continue
				}
				for _, layer := range heap.names() {
					b.ReportMetric(float64(heap.layers[layer]), layer+"-B")
				}
				b.ReportMetric(float64(heap.live), "live-B")
				b.ReportMetric(float64(heap.glue()), "glue-B")
				if c.sessions > 0 {
					if established == 0 {
						b.Fatalf("none of %d sessions was established", c.sessions)
					}
					b.ReportMetric(float64(established), "sessions")
					b.ReportMetric(float64(heap.live-before)/float64(established), "session-B")
				}
			}
		})
	}
}

// residentGlue bounds the glue: live bytes no layer accounts for, as a share
// of live-B.
const residentGlue = 0.02

// residentHeap is the live heap after a forced GC, attributed to layers.
type residentHeap struct {
	live   int64            // /gc/heap/live:bytes
	layers map[string]int64 // in-use profile bytes by brokerset/internal package
}

// liveHeap forces a GC and reads the bytes it marked live.
func liveHeap() int64 {
	// Twice: the memory profile may lag a cycle behind, and after two
	// every allocation made before the first reads as freed or in use.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// attributeHeap forces GC and attributes every in-use byte of the memory
// profile to the package of the innermost brokerset/internal frame of its
// allocating stack; a stack whose innermost such frame is in a _test.go file,
// or that has none, is glue.
func attributeHeap() residentHeap {
	h := residentHeap{live: liveHeap(), layers: make(map[string]int64)}
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, false)
	for {
		recs = make([]runtime.MemProfileRecord, n+n/8+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, false); ok {
			recs = recs[:n]
			break
		}
	}
	for i := range recs {
		if bytes := recs[i].InUseBytes(); bytes > 0 {
			if layer := stackLayer(recs[i].Stack()); layer != "" {
				h.layers[layer] += bytes
			}
		}
	}
	return h
}

// stackLayer returns the package, under brokerset/internal, of the innermost
// such frame of stack, or "" when that frame is in a test file or there is
// none. graph.NewBitset is a container constructor every layer calls, not a
// holder, so its frame is passed over: routing's failure flags read as
// routing-B and churn's down sets as churn-B, where a second copy of them
// would show.
func stackLayer(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, "brokerset/internal/"); ok && rest != "graph.NewBitset" {
			if strings.HasSuffix(f.File, "_test.go") {
				return ""
			}
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg
		}
		if !more {
			return ""
		}
	}
}

// names returns the layers in ascending order.
func (h residentHeap) names() []string {
	out := make([]string, 0, len(h.layers))
	for layer := range h.layers {
		out = append(out, layer)
	}
	sort.Strings(out)
	return out
}

// glue is live-B less the layers.
func (h residentHeap) glue() int64 {
	g := h.live
	for _, n := range h.layers {
		g -= n
	}
	return g
}

// check holds the layers to live-B within the stated glue.
func (h residentHeap) check() error {
	if g := h.glue(); g < 0 || float64(g) > residentGlue*float64(h.live) {
		return fmt.Errorf("layers sum to %d B against %d B live: glue %d B outside [0, %.0f%% of live]",
			h.live-g, h.live, g, 100*residentGlue)
	}
	return nil
}
