package routing

import (
	"math"
	"math/bits"
)

// QueryKey identifies a path computation for caching purposes: the endpoint
// pair plus every Options field that can change the result. It is a
// comparable value type so it can key maps directly.
type QueryKey struct {
	Src, Dst     int32
	MaxHops      int32
	MinBandwidth float64
	BrokersOnly  bool
}

// CacheKey returns the cache identity of a (src, dst, opts) query. Negative
// MaxHops values collapse to 0 (unbounded), matching BestPath semantics, and
// so does a bound too large for the key's int32 — no graph this package can
// hold has a simple path that long, and truncating it would alias the
// query onto a small bound's entry.
func (o Options) CacheKey(src, dst int) QueryKey {
	mh := o.MaxHops
	if mh < 0 || mh > math.MaxInt32 {
		mh = 0
	}
	return QueryKey{
		Src:          int32(src),
		Dst:          int32(dst),
		MaxHops:      int32(mh),
		MinBandwidth: o.MinBandwidth,
		BrokersOnly:  o.BrokersOnly,
	}
}

// Hash mixes the key into a 64-bit value suitable for shard selection. It
// is a splitmix64-style finalizer over the packed fields, so consecutive
// node ids land on different shards.
func (k QueryKey) Hash() uint64 {
	h := uint64(uint32(k.Src))<<32 | uint64(uint32(k.Dst))
	h ^= uint64(uint32(k.MaxHops)) << 1
	h ^= bits.RotateLeft64(floatBits(k.MinBandwidth), 17)
	if k.BrokersOnly {
		h ^= 0x9e3779b97f4a7c15
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func floatBits(f float64) uint64 {
	if f == 0 {
		return 0 // normalize ±0
	}
	return math.Float64bits(f)
}
