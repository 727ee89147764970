package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histSub is the number of linear sub-buckets per power-of-two octave: 16
// sub-buckets bound the quantile estimation error at ~6%.
const histSub = 16

// histBuckets covers nanosecond durations up to ~2^62 ns.
const histBuckets = histSub * 60

// Histogram is a lock-free HDR-style histogram of durations: log2 octaves
// split into histSub linear sub-buckets, one atomic counter each. The zero
// value is ready to use; Observe and Quantile are safe for concurrent use.
// It must not be copied after first use.
//
// One Histogram type backs every latency quantile in the repo — the query
// plane's serving latency, loadgen's end-to-end latency, and brokerd's
// /metrics summaries all share the same buckets and the same quantile math,
// so numbers from different vantage points are directly comparable.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64

	// Exemplar retention (ObserveTrace): the top-K slowest traced
	// observations seen recently. exThr caches the smallest retained
	// duration once all slots are full, so the hot path is one atomic load
	// and a compare — the mutex is only taken for genuinely extreme
	// observations, which are rare by definition.
	exThr atomic.Int64
	exMu  sync.Mutex
	exs   []Exemplar
}

// histExemplars bounds the exemplars retained per histogram.
const histExemplars = 8

// Exemplar ties an extreme observation to the trace that produced it.
type Exemplar struct {
	TraceID uint64        `json:"trace_id"`
	Value   time.Duration `json:"value_ns"`
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // >= 4
	frac := (ns >> (exp - 4)) & (histSub - 1)
	b := (exp-3)*histSub + int(frac)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histValue returns a representative (upper-bound) duration for a bucket.
func histValue(b int) time.Duration {
	if b < histSub {
		return time.Duration(b)
	}
	exp := b/histSub + 3
	frac := int64(b % histSub)
	return time.Duration((histSub + frac + 1) << (exp - 4))
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	h.buckets[histBucket(ns)].Add(1)
	if ns > 0 {
		h.sumNs.Add(uint64(ns))
	}
	h.count.Add(1)
}

// ObserveTrace records one duration and, when traceID is non-zero and the
// duration ranks among the histogram's slowest retained observations,
// keeps (traceID, d) as an exemplar. Untraced call sites keep using
// Observe; the extra cost here is one atomic load on the non-extreme path.
func (h *Histogram) ObserveTrace(d time.Duration, traceID uint64) {
	h.Observe(d)
	if traceID == 0 {
		return
	}
	if thr := h.exThr.Load(); thr > 0 && d.Nanoseconds() <= thr {
		return // slots full and this observation is not extreme
	}
	h.keepExemplar(Exemplar{TraceID: traceID, Value: d})
}

// keepExemplar inserts e into the top-K slots, evicting the smallest, and
// refreshes the fast-path admission threshold.
func (h *Histogram) keepExemplar(e Exemplar) {
	h.exMu.Lock()
	if len(h.exs) < histExemplars {
		h.exs = append(h.exs, e)
	} else {
		min := 0
		for i := 1; i < len(h.exs); i++ {
			if h.exs[i].Value < h.exs[min].Value {
				min = i
			}
		}
		if h.exs[min].Value < e.Value {
			h.exs[min] = e
		}
	}
	if len(h.exs) == histExemplars {
		thr := h.exs[0].Value
		for _, x := range h.exs[1:] {
			if x.Value < thr {
				thr = x.Value
			}
		}
		h.exThr.Store(thr.Nanoseconds())
	}
	h.exMu.Unlock()
}

// Exemplars returns the retained extreme-observation exemplars, slowest
// first.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	out := append([]Exemplar(nil), h.exs...)
	h.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1])
// of all observed durations; 0 when nothing was observed. The snapshot is
// not atomic across buckets, which is fine for monitoring output.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum > rank {
			return histValue(b)
		}
	}
	return histValue(histBuckets - 1)
}
