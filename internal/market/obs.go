package market

import (
	"brokerset/internal/obs"
)

// RegisterMetrics exposes the economics plane on reg under the market_
// namespace: the published price and congestion state as gauges, admission
// and revenue counters, and settlement-ledger families. All values are
// adapted at scrape time from the plane's own atomics — nothing here runs
// on the admission hot path.
func (p *Plane) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(func(emit func(obs.Sample)) {
		q := p.Ctrl.Quote()
		congested := 0.0
		if q.Congested {
			congested = 1
		}
		st := p.Adm.Stats()
		for _, m := range []struct {
			name, help string
			kind       obs.Kind
			val        float64
		}{
			{"market_price_units", "current congestion-adjusted broker price per admitted request", obs.KindGauge, q.Price},
			{"market_price_base_units", "raw Stackelberg equilibrium price before congestion adjustment", obs.KindGauge, q.BasePrice},
			{"market_congestion_multiplier", "price multiplier applied at the last reprice", obs.KindGauge, q.Multiplier},
			{"market_congested", "1 while priced admission is comparing bids to the quote", obs.KindGauge, congested},
			{"market_utilization_ratio", "utilization the last reprice sampled", obs.KindGauge, q.Utilization},
			{"market_adoption_total_traffic", "total follower adoption at the last equilibrium", obs.KindGauge, q.Adoption},
			{"market_reprices_total", "pricing-loop iterations run", obs.KindCounter, float64(p.Ctrl.Ticks())},
			{"market_admitted_total", "requests admitted by priced admission", obs.KindCounter, float64(st.Admitted)},
			{"market_admitted_free_total", "zero-bid requests admitted while uncongested", obs.KindCounter, float64(st.AdmittedFree)},
			{"market_price_rejected_total", "requests refused with bid below quote", obs.KindCounter, float64(st.PriceRejected)},
			{"market_revenue_units_total", "accumulated admission payments (price units)", obs.KindCounter, st.Revenue},
			{"market_settlements_total", "settlement windows closed", obs.KindCounter, float64(p.Set.Windows())},
			{"market_settlement_pending_units", "traffic units accumulated in the open window", obs.KindGauge, p.Set.PendingUnits()},
		} {
			emit(obs.Sample{Name: m.name, Help: m.help, Kind: m.kind, Value: m.val})
		}
		if rec, ok := p.Set.LastRecord(); ok {
			emit(obs.Sample{Name: "market_settlement_last_revenue_units", Help: "revenue split by the most recent settlement", Kind: obs.KindGauge, Value: rec.Revenue})
			emit(obs.Sample{Name: "market_settlement_last_brokers", Help: "brokers credited by the most recent settlement", Kind: obs.KindGauge, Value: float64(len(rec.Brokers))})
			emit(obs.Sample{Name: "market_settlement_efficiency_gap", Help: "raw Shapley efficiency gap of the most recent settlement (pre-normalization)", Kind: obs.KindGauge, Value: rec.EfficiencyGap})
		}
	})
}
