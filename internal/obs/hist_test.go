package obs

import (
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Log-bucketed estimates: allow the ~6% bucket width plus slack.
	if p50 < 400*time.Microsecond || p50 > 650*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	if p99 < 900*time.Microsecond || p99 > 1200*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	want := time.Duration(1000*1001/2) * time.Microsecond
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistBucketBoundaries pins the bucket mapping at the exact
// power-of-two octave edges, where an off-by-one in the exponent math
// would silently shift quantiles by a whole sub-bucket.
func TestHistBucketBoundaries(t *testing.T) {
	// Below histSub ns every nanosecond is its own bucket.
	for ns := int64(0); ns < histSub; ns++ {
		if got := histBucket(ns); got != int(ns) {
			t.Errorf("histBucket(%d) = %d, want %d", ns, got, ns)
		}
	}
	// An octave edge 2^e starts a fresh run of histSub sub-buckets; the
	// value just below it lands in the previous run's last sub-bucket.
	for exp := 4; exp <= 40; exp++ {
		edge := int64(1) << exp
		atEdge, below := histBucket(edge), histBucket(edge-1)
		if atEdge != below+1 {
			t.Errorf("2^%d: bucket(edge)=%d bucket(edge-1)=%d, want adjacent", exp, atEdge, below)
		}
		if atEdge != (exp-3)*histSub {
			t.Errorf("2^%d: bucket = %d, want %d", exp, atEdge, (exp-3)*histSub)
		}
		// histValue must be an upper bound for everything in the bucket.
		if hv := histValue(below); hv < time.Duration(edge-1) {
			t.Errorf("histValue(%d) = %v < %d ns it must bound", below, hv, edge-1)
		}
	}
	if histBucket(-5) != 0 {
		t.Error("negative duration not clamped to bucket 0")
	}
}

func TestHistBucketsContinuous(t *testing.T) {
	last := -1
	for ns := int64(0); ns < 1<<20; ns += 7 {
		b := histBucket(ns)
		if b < last {
			t.Fatalf("bucket regressed at %d ns: %d < %d", ns, b, last)
		}
		last = b
	}
	if histBucket(1<<63-1) != histBuckets-1 {
		t.Fatal("max duration not in last bucket")
	}
}
