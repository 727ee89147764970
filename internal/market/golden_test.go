package market

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// goldenScenarios pins Simulate bit for bit: an FNV-64a hash over every
// price, quote and ledger record (and the final admission counters) of each
// named scenario at seeds 1-3. A refactor of the controller, the admission
// gate, the settlement engine or the scenario driver must leave every hash
// where it is.
var goldenScenarios = map[string][3]uint64{
	ScenarioPriceShock: {0x9f0d223bf0799ea4, 0x35ece3fe34990490, 0x68b68885c14075eb},
	ScenarioFreeRider:  {0x2e133e6b60fd0013, 0xbc5235ffd1062485, 0x98b657f2a6a7ed22},
	ScenarioDefection:  {0x292cc26503152166, 0x097b81c1e5fcbc87, 0x8281da81be9ab750},
}

func hashU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func hashF64(h hash.Hash64, fs ...float64) {
	for _, f := range fs {
		hashU64(h, math.Float64bits(f))
	}
}

func hashBool(h hash.Hash64, v bool) {
	if v {
		hashU64(h, 1)
	} else {
		hashU64(h, 0)
	}
}

// hashSim folds a Simulate result into an FNV-64a hash.
func hashSim(res *SimResult) uint64 {
	h := fnv.New64a()
	hashF64(h, res.Prices...)
	for _, q := range res.Quotes {
		hashF64(h, q.Price, q.BasePrice, q.Multiplier, q.Utilization, q.Adoption)
		hashBool(h, q.Congested)
		hashU64(h, q.Tick)
	}
	for _, rec := range res.Ledger {
		hashU64(h, uint64(rec.Window), rec.Tick, uint64(rec.Samples), uint64(rec.Seed))
		hashF64(h, rec.Revenue, rec.Units, rec.EfficiencyGap)
		h.Write([]byte(rec.Method))
		for i, b := range rec.Brokers {
			hashU64(h, uint64(int64(b)))
			hashF64(h, rec.Splits[i])
		}
	}
	st := res.Admission
	hashU64(h, st.Admitted, st.AdmittedFree, st.PriceRejected, uint64(int64(res.Defected)))
	hashF64(h, st.Revenue)
	return h.Sum64()
}

func TestSimulateGolden(t *testing.T) {
	for name, want := range goldenScenarios {
		spec, err := DefaultScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				res, err := Simulate(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				if got := hashSim(res); got != want[seed-1] {
					t.Errorf("Simulate hash = %#x, want %#x", got, want[seed-1])
				}
			})
		}
	}
}
