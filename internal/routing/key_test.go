package routing

import (
	"math"
	"testing"
)

func TestCacheKeyIdentity(t *testing.T) {
	a := Options{MaxHops: 4, MinBandwidth: 2.5}.CacheKey(1, 2)
	b := Options{MaxHops: 4, MinBandwidth: 2.5}.CacheKey(1, 2)
	if a != b {
		t.Fatal("identical queries produced different keys")
	}
	distinct := []QueryKey{
		Options{}.CacheKey(1, 2),
		Options{}.CacheKey(2, 1), // direction matters
		Options{MaxHops: 4}.CacheKey(1, 2),
		Options{MinBandwidth: 2.5}.CacheKey(1, 2),
		Options{BrokersOnly: true}.CacheKey(1, 2),
		a,
	}
	seen := make(map[QueryKey]bool)
	for _, k := range distinct {
		if seen[k] {
			t.Fatalf("key collision: %+v", k)
		}
		seen[k] = true
	}
	// Negative MaxHops collapses to unbounded, matching BestPath.
	if (Options{MaxHops: -3}).CacheKey(1, 2) != (Options{}).CacheKey(1, 2) {
		t.Fatal("negative MaxHops not normalized")
	}
	// So does a bound past the key's int32: truncated, 2^32+1 would alias
	// MaxHops 1.
	if huge := math.MaxUint32 + 2; (Options{MaxHops: huge}).CacheKey(1, 2) != (Options{}).CacheKey(1, 2) {
		t.Fatal("MaxHops beyond int32 not collapsed to unbounded")
	}
	if (Options{MaxHops: math.MaxInt32}).CacheKey(1, 2).MaxHops != math.MaxInt32 {
		t.Fatal("largest representable MaxHops not kept")
	}
}

func TestCacheKeyRoundTrip(t *testing.T) {
	o := Options{MaxHops: 6, MinBandwidth: 1.25, BrokersOnly: true}
	k := o.CacheKey(3, 9)
	got := Options{MaxHops: int(k.MaxHops), MinBandwidth: k.MinBandwidth, BrokersOnly: k.BrokersOnly}
	if got != o || k.Src != 3 || k.Dst != 9 {
		t.Fatalf("round trip = %+v, want %+v", k, o)
	}
}

func TestCacheKeyHashSpreads(t *testing.T) {
	// Sequential ids must not all land on the same shard for any small
	// power-of-two shard count.
	for _, shards := range []uint64{4, 16, 64} {
		used := make(map[uint64]bool)
		for src := 0; src < 64; src++ {
			k := Options{}.CacheKey(src, src+1)
			used[k.Hash()&(shards-1)] = true
		}
		if len(used) < int(shards)/2 {
			t.Fatalf("%d shards: only %d used by 64 sequential keys", shards, len(used))
		}
	}
	if (QueryKey{}).Hash() == (QueryKey{Src: 1}).Hash() {
		t.Fatal("trivial hash collision")
	}
}
