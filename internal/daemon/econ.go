package daemon

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"brokerset/internal/market"
	"brokerset/internal/obs"
)

// econState is brokerd's live economics plane (nil unless -econ is set): the
// market plane — a controller repricing from sampled query-plane load, the
// priced admission gate the query plane consults, and the settlement engine
// that splits accrued revenue across the brokers that carried the traffic —
// and the sampling the daemon does for it.
type econState struct {
	*market.Plane

	// every is the controller sampling period.
	every time.Duration

	// lastQueries remembers the query counter at the previous sample so
	// each tick feeds the controller a demand delta, not a lifetime total.
	lastQueries uint64
}

// EconConfig carries the -econ-* flags.
type EconConfig struct {
	Every       time.Duration
	WindowTicks int
	Seed        int64
	Threshold   float64
}

// enableEcon wires the economics plane onto a daemon New is still building:
// nothing reads s.econ yet, and pricing sees the whole run.
func (s *Daemon) enableEcon(cfg EconConfig) error {
	if cfg.Every <= 0 {
		cfg.Every = 250 * time.Millisecond
	}
	if cfg.WindowTicks <= 0 {
		cfg.WindowTicks = 40
	}
	plane, err := market.NewPlane(market.Config{CongestionThreshold: cfg.Threshold}, cfg.Seed, cfg.WindowTicks)
	if err != nil {
		return err
	}
	plane.RegisterMetrics(s.reg)
	s.econ = &econState{Plane: plane, every: cfg.Every}
	return nil
}

// econTick is one run of the market job: it samples the query plane (pool
// occupancy as utilization, query delta as demand, live sessions as adoption
// signal) and ticks the plane, which reprices and settles each full window.
func (s *Daemon) econTick(e *econState) {
	st := s.qp.Stats()
	demand := float64(st.Queries - e.lastQueries)
	e.lastQueries = st.Queries
	// A reprice that fails keeps the last quote; the next beat tries again.
	_, _ = e.Tick(market.Sample{Utilization: s.qp.Occupancy(), Demand: demand, Sessions: s.sessions.Len()})
}

// Admit implements queryplane.Admission by delegating to the live econ
// state; with the plane disabled every bid is admitted at quote 0, so the
// hook costs one nil-check on the hot path.
func (s *Daemon) Admit(bid float64) (bool, float64) {
	if s.econ == nil {
		return true, 0
	}
	return s.econ.Adm.Admit(bid)
}

// recordCarriers credits the settlement accumulator with the brokers that
// carried units of traffic along path nodes (the coalition members on the
// path, per the current snapshot). No-op while econ is disabled.
func (s *Daemon) recordCarriers(nodes []int32, units float64) {
	e := s.econ
	if e == nil {
		return
	}
	snap := s.pub.Current()
	var carriers []int32
	for _, n := range nodes {
		if snap.IsBroker(n) {
			carriers = append(carriers, n)
		}
	}
	e.Set.Record(carriers, units)
}

// econPriceError maps a queryplane price refusal onto the HTTP contract:
// 429 with the posted price in X-Econ-Price, a Retry-After hinting the
// next controller tick, and the quote in the JSON body.
func (s *Daemon) writePriceRejection(w http.ResponseWriter, quote float64) {
	retry := 1
	if e := s.econ; e != nil && e.every >= time.Second {
		retry = int(e.every.Seconds())
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("X-Econ-Price", strconv.FormatFloat(quote, 'g', -1, 64))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error": "bid below current price",
		"price": quote,
	})
}

// parseBid reads the request's bid: the bid query parameter, else the
// X-Econ-Bid header (read by its canonical key, as net/http stores it).
// Absent or malformed bids — negative and non-finite ones included — are
// zero: the free-rider tier, admitted whenever the plane is uncongested.
func parseBid(param string, h http.Header) float64 {
	v := param
	if hv := h["X-Econ-Bid"]; v == "" && len(hv) > 0 {
		v = hv[0]
	}
	if v == "" {
		return 0
	}
	bid, err := strconv.ParseFloat(v, 64)
	if err != nil || bid < 0 || math.IsNaN(bid) || math.IsInf(bid, 0) {
		return 0
	}
	return bid
}

// handleEconPrice serves GET /econ/price: the current posted price.
func (s *Daemon) handleEconPrice(w http.ResponseWriter, r *http.Request) {
	e, ok := s.requireEcon(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"price":     e.Ctrl.Price(),
		"congested": e.Ctrl.Congested(),
		"tick":      e.Ctrl.Ticks(),
	})
}

// handleEconQuote serves GET /econ/quote: the full repricing breakdown
// (base equilibrium price, congestion multiplier, utilization, adoption).
func (s *Daemon) handleEconQuote(w http.ResponseWriter, r *http.Request) {
	e, ok := s.requireEcon(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.Ctrl.Quote())
}

// handleEconSettlement serves GET /econ/settlement: the settlement ledger,
// newest-last. ?last=N bounds the window count; ?format=jsonl streams the
// append-only ledger form.
func (s *Daemon) handleEconSettlement(w http.ResponseWriter, r *http.Request) {
	e, ok := s.requireEcon(w)
	if !ok {
		return
	}
	records := e.Set.Records()
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "last must be a non-negative integer")
			return
		}
		if n < len(records) {
			records = records[len(records)-n:]
		}
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		// One record per line.
		enc := json.NewEncoder(w)
		for i := range records {
			_ = enc.Encode(&records[i])
		}
		return
	}
	writeJSON(w, http.StatusOK, records)
}

// handleEconSettle serves POST /econ/settlement: force a window close
// (test/CI hook), settling whatever revenue and traffic accrued since the
// last close.
func (s *Daemon) handleEconSettle(w http.ResponseWriter, r *http.Request) {
	e, ok := s.requireEcon(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.Settle())
}

// handleEconStats serves GET /econ/stats: admission counters, settlement
// progress, and the controller's tick count in one snapshot.
func (s *Daemon) handleEconStats(w http.ResponseWriter, r *http.Request) {
	e, ok := s.requireEcon(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"admission":     e.Adm.Stats(),
		"price":         e.Ctrl.Price(),
		"congested":     e.Ctrl.Congested(),
		"ticks":         e.Ctrl.Ticks(),
		"windows":       e.Set.Windows(),
		"pending_units": e.Set.PendingUnits(),
	})
}

// requireEcon gates the /econ/* handlers on the plane being enabled.
func (s *Daemon) requireEcon(w http.ResponseWriter) (*econState, bool) {
	e := s.econ
	if e == nil {
		writeError(w, http.StatusNotFound, "economics plane disabled (run with -econ)")
		return nil, false
	}
	return e, true
}

// registerEconCollectors adds scrape-time econ context that isn't owned by
// the market package: whether the plane is enabled at all.
func (s *Daemon) registerEconCollectors() {
	s.reg.RegisterCollector(func(emit func(obs.Sample)) {
		enabled := 0.0
		if s.econ != nil {
			enabled = 1
		}
		emit(obs.Sample{
			Name: "market_enabled",
			Help: "1 when the economics plane (-econ) is active",
			Kind: obs.KindGauge, Value: enabled,
		})
	})
}
