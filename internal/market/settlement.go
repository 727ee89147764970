package market

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"brokerset/internal/econ"
)

// Settlement accumulates which brokers carried each admitted unit of
// traffic and, at each window close, splits the revenue the admission gate
// accrued over that window by Shapley value. The characteristic function
// over a window is a coverage game: a coalition S is credited with the
// traffic units whose carrier set intersects S (any member could have
// completed the delivery), scaled so the grand coalition's value is
// exactly the window revenue. Coverage games are submodular, so the split
// genuinely rewards irreplaceability, not just volume: a broker that is
// the sole carrier on its paths earns more per unit than one that always
// shares credit.
//
// Windows with at most maxExact distinct carriers settle by exact
// enumeration; larger windows use seeded Monte-Carlo permutation sampling
// (the seed derives deterministically from the engine's seed and the window
// index, so a replayed run produces a bitwise-identical ledger). Windows
// with more than 64 distinct carriers settle the top 63 by carried volume
// game-theoretically and fold the tail into one aggregate player whose
// share is redistributed among tail members in proportion to volume.
//
// Settlement is sequential, like the Plane that drives it.
type Settlement struct {
	seed int64

	// units maps a window-local carrier-set signature (bitmask over the
	// window's broker index) to accumulated traffic units.
	units map[uint64]float64
	// index assigns window-local player indices to broker ids; carried
	// tracks per-broker volume for tie-breaks and tail folding.
	index   map[int32]int
	players []int32
	carried map[int32]float64
	window  int
	records []Record
}

// maxExact is the largest distinct-carrier count settled by exact
// enumeration (econ.ShapleyExact takes up to 20); mcSamples is the
// Monte-Carlo permutation count beyond it.
const (
	maxExact  = 12
	mcSamples = 2000
)

// maxPlayers is the per-window distinct-carrier capacity (econ's
// Monte-Carlo bitmask bound, minus one slot reserved for the folded tail).
const maxPlayers = 64

// Record is one append-only settlement ledger entry.
type Record struct {
	// Window is the zero-based settlement window index.
	Window int `json:"window"`
	// Tick is the controller tick at which the window closed (0 when the
	// driver does not report ticks).
	Tick uint64 `json:"tick"`
	// Revenue is the window's total revenue; Units the carried traffic.
	Revenue float64 `json:"revenue"`
	Units   float64 `json:"units"`
	// Brokers and Splits are parallel: Splits[i] is broker Brokers[i]'s
	// revenue share. Σ Splits == Revenue exactly (conservation is
	// enforced, not approximated).
	Brokers []int32   `json:"brokers"`
	Splits  []float64 `json:"splits"`
	// Method is "exact", "montecarlo", or "proportional" (degenerate
	// windows: zero revenue or a single carrier).
	Method string `json:"method"`
	// Samples and Seed document the Monte-Carlo draw (zero for exact).
	Samples int   `json:"samples,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
	// EfficiencyGap is the raw |Σφ − v(N)| before normalization — the
	// Monte-Carlo estimator's error, recorded for observability.
	EfficiencyGap float64 `json:"efficiency_gap"`
}

// TopBroker returns the broker with the largest split (lowest id wins
// ties), or -1 for an empty record. The broker-defection scenario uses it
// to pick its victim.
func (r *Record) TopBroker() int32 {
	best, bestShare := int32(-1), math.Inf(-1)
	for i, id := range r.Brokers {
		if r.Splits[i] > bestShare || (r.Splits[i] == bestShare && (best < 0 || id < best)) {
			best, bestShare = id, r.Splits[i]
		}
	}
	return best
}

// NewSettlement builds an engine whose Monte-Carlo windows draw from seed
// (0 means 1; see windowSeed).
func NewSettlement(seed int64) *Settlement {
	if seed == 0 {
		seed = 1
	}
	return &Settlement{
		seed:    seed,
		units:   make(map[uint64]float64),
		index:   make(map[int32]int),
		carried: make(map[int32]float64),
	}
}

// Record accumulates units of carried traffic attributed to the given
// carrier brokers (the coalition members on the served path). Duplicate
// ids are tolerated; empty carrier sets are ignored (nothing to settle).
func (s *Settlement) Record(carriers []int32, units float64) {
	if len(carriers) == 0 || units <= 0 {
		return
	}
	var mask uint64
	for _, b := range carriers {
		idx, ok := s.index[b]
		if !ok {
			if len(s.players) >= maxPlayers {
				// Window player capacity reached: credit volume only; the
				// tail fold at Settle redistributes from the aggregate.
				s.carried[b] += units
				continue
			}
			idx = len(s.players)
			s.index[b] = idx
			s.players = append(s.players, b)
		}
		mask |= 1 << idx
		s.carried[b] += units
	}
	if mask != 0 {
		s.units[mask] += units
	}
}

// windowSeed derives the deterministic Monte-Carlo seed for window w.
func (s *Settlement) windowSeed(w int) int64 {
	return s.seed ^ int64(w+1)*0x1F3A5C96D8B14E07
}

// Settle closes the current window: it computes the Shapley split of
// revenue over the accumulated carrier signatures, appends the record to
// the ledger, and resets the accumulator for the next window. tick labels
// the record with the controller tick. A window with no carried traffic
// yields a record with empty splits (revenue, if any, carries the record
// for audit). Settle never returns a record violating conservation:
// Σ splits == revenue exactly.
func (s *Settlement) Settle(revenue float64, tick uint64) Record {
	rec := Record{Window: s.window, Tick: tick, Revenue: revenue}
	n := len(s.players)
	var total float64
	for _, u := range s.units {
		total += u
	}
	// Traffic recorded past the player capacity contributes to carried[]
	// but not to any signature; count it so proportional folding sees it.
	var carriedTotal float64
	for _, u := range s.carried {
		carriedTotal += u
	}
	rec.Units = carriedTotal

	switch {
	case n == 0 || revenue == 0 || total <= 0:
		// Nothing to split (no paying traffic or no carriers): credit
		// proportionally over carried volume when possible.
		rec.Method = "proportional"
		if revenue != 0 && carriedTotal > 0 {
			s.splitProportional(&rec, revenue)
		} else if revenue != 0 {
			// Revenue with no recorded carriers: park it on the record
			// unsplit is a conservation violation, so emit a single
			// synthetic "unattributed" split under broker id -1.
			rec.Brokers = []int32{-1}
			rec.Splits = []float64{revenue}
		}
	case n == 1:
		rec.Method = "proportional"
		s.splitProportional(&rec, revenue)
	case n <= maxExact:
		rec.Method = "exact"
		phi, err := econ.ShapleyExact(n, s.coalitionValue())
		if err != nil {
			rec.Method = "proportional"
			s.splitProportional(&rec, revenue)
			break
		}
		s.applySplit(&rec, phi, revenue, total)
	default:
		rec.Method = "montecarlo"
		rec.Samples = mcSamples
		rec.Seed = s.windowSeed(s.window)
		rng := rand.New(rand.NewSource(rec.Seed))
		phi, err := econ.ShapleyMonteCarlo(n, s.coalitionValue(), mcSamples, rng)
		if err != nil {
			rec.Method = "proportional"
			s.splitProportional(&rec, revenue)
			break
		}
		s.applySplit(&rec, phi, revenue, total)
	}

	s.records = append(s.records, rec)
	s.window++
	s.units = make(map[uint64]float64)
	s.index = make(map[int32]int)
	s.players = nil
	s.carried = make(map[int32]float64)
	return rec
}

// coalitionValue builds the window's characteristic function, a coverage
// game in traffic units: v(S) is the recorded volume whose carrier set
// intersects S. The signature list is sorted so iteration order — and with
// it every Monte-Carlo estimate — is deterministic.
func (s *Settlement) coalitionValue() econ.CoalitionValue {
	sigs := make([]uint64, 0, len(s.units))
	for sig := range s.units {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	vols := make([]float64, len(sigs))
	for i, sig := range sigs {
		vols[i] = s.units[sig]
	}
	return econ.Memoize(func(mask uint64) float64 {
		var covered float64
		for i, sig := range sigs {
			if sig&mask != 0 {
				covered += vols[i]
			}
		}
		return covered
	})
}

// applySplit converts raw Shapley values over signature-covered units into
// per-broker revenue shares: brokers beyond the player capacity (recorded
// in carried but never indexed) share the unindexed residual
// proportionally, the indexed φ are scaled to the remaining revenue, and
// the floating residual is folded into the largest share so the record
// conserves revenue exactly.
func (s *Settlement) applySplit(rec *Record, phi []float64, revenue, total float64) {
	var phiSum float64
	for _, p := range phi {
		phiSum += p
	}
	rec.EfficiencyGap = math.Abs(phiSum - total)

	// Volume carried by unindexed tail brokers (no signature credit).
	var tailVol float64
	tail := make([]int32, 0)
	for b, u := range s.carried {
		if _, ok := s.index[b]; !ok {
			tail = append(tail, b)
			tailVol += u
		}
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })

	indexedVol := total
	tailRevenue := 0.0
	if tailVol > 0 {
		tailRevenue = revenue * tailVol / (indexedVol + tailVol)
	}
	mainRevenue := revenue - tailRevenue

	rec.Brokers = append([]int32(nil), s.players...)
	rec.Splits = make([]float64, len(s.players))
	if phiSum > 0 {
		for i := range phi {
			rec.Splits[i] = mainRevenue * phi[i] / phiSum
		}
	} else if len(rec.Splits) > 0 {
		for i := range rec.Splits {
			rec.Splits[i] = mainRevenue / float64(len(rec.Splits))
		}
	}
	for _, b := range tail {
		rec.Brokers = append(rec.Brokers, b)
		rec.Splits = append(rec.Splits, tailRevenue*s.carried[b]/tailVol)
	}
	conserve(rec, revenue)
}

// splitProportional splits revenue over carried volume.
func (s *Settlement) splitProportional(rec *Record, revenue float64) {
	ids := make([]int32, 0, len(s.carried))
	var total float64
	for b, u := range s.carried {
		ids = append(ids, b)
		total += u
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rec.Brokers = ids
	rec.Splits = make([]float64, len(ids))
	for i, b := range ids {
		rec.Splits[i] = revenue * s.carried[b] / total
	}
	conserve(rec, revenue)
}

// conserve folds the floating-point residual of Σ splits − revenue into
// the largest split, so what is left is the rounding of one more sum: zero
// for small windows, an ulp of the revenue (1.5e-8 at 1e8) for large ones.
func conserve(rec *Record, revenue float64) {
	if len(rec.Splits) == 0 {
		return
	}
	var sum float64
	maxI := 0
	for i, v := range rec.Splits {
		sum += v
		if v > rec.Splits[maxI] {
			maxI = i
		}
	}
	rec.Splits[maxI] += revenue - sum
}

// CheckConservation verifies Σ splits == revenue within tol for every
// ledger record, returning the first violation. tol is absolute up to a
// revenue of 1 and relative beyond it: a fixed 1e-9 is below one ulp of any
// window that took in more than ~4e6.
func (s *Settlement) CheckConservation(tol float64) error {
	for _, rec := range s.records {
		var sum float64
		for _, v := range rec.Splits {
			sum += v
		}
		if math.Abs(sum-rec.Revenue) > tol*math.Max(1, math.Abs(rec.Revenue)) {
			return fmt.Errorf("market: window %d splits sum %.12g != revenue %.12g (gap %.3g > tol %.3g)",
				rec.Window, sum, rec.Revenue, math.Abs(sum-rec.Revenue), tol)
		}
	}
	return nil
}

// Records returns a copy of the ledger.
func (s *Settlement) Records() []Record {
	return append([]Record(nil), s.records...)
}

// PendingUnits returns the traffic units accumulated in the open window.
func (s *Settlement) PendingUnits() float64 {
	var total float64
	for _, u := range s.carried {
		total += u
	}
	return total
}
