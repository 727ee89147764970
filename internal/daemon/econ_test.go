package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"brokerset/internal/market"
	"brokerset/internal/queryplane"
	"brokerset/internal/routing"
)

// econTestServer builds a server with the economics plane enabled (the
// controller loop is NOT started — tests drive reprices directly so the
// congestion state is deterministic).
func econTestServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	return testServerWith(t, 0.01, Config{K: 20, ChurnSeed: 42, SetupQueue: 1024, Econ: &EconConfig{Seed: 7}})
}

func TestEconDisabledReturns404(t *testing.T) {
	_, ts := testServer(t) // no -econ
	for _, ep := range []string{"/econ/price", "/econ/quote", "/econ/settlement", "/econ/stats"} {
		if code := getJSON(t, ts.URL+ep, nil); code != http.StatusNotFound {
			t.Errorf("%s status %d without -econ, want 404", ep, code)
		}
	}
	// And the query path still works bid-free, zero econ involvement.
	srv, _ := testServer(t)
	if ok, quote := srv.Admit(0); !ok || quote != 0 {
		t.Fatalf("disabled admission hook = (%v, %g), want (true, 0)", ok, quote)
	}
}

func TestEconPriceAndQuoteEndpoints(t *testing.T) {
	_, ts := econTestServer(t)
	var price struct {
		Price     float64 `json:"price"`
		Congested bool    `json:"congested"`
	}
	if code := getJSON(t, ts.URL+"/econ/price", &price); code != http.StatusOK {
		t.Fatalf("/econ/price status %d", code)
	}
	if price.Price <= 0 {
		t.Fatalf("price = %g, want > 0", price.Price)
	}
	if price.Congested {
		t.Fatal("congested before any load")
	}
	var quote market.Quote
	if code := getJSON(t, ts.URL+"/econ/quote", &quote); code != http.StatusOK {
		t.Fatalf("/econ/quote status %d", code)
	}
	if quote.Price != price.Price || quote.BasePrice <= 0 {
		t.Fatalf("quote %+v inconsistent with price %+v", quote, price)
	}
}

func TestPricedAdmissionOverHTTP(t *testing.T) {
	srv, ts := econTestServer(t)
	e := srv.econ
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	// Uncongested: zero-bid queries ride free (backward compatible).
	url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)
	if code := getJSON(t, url, nil); code != http.StatusOK {
		t.Fatalf("zero-bid path status %d while uncongested", code)
	}

	// Drive the controller into congestion, then underbid.
	for i := 0; i < 20; i++ {
		if _, err := e.Ctrl.Reprice(market.Sample{Utilization: 0.95, Demand: 512}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Ctrl.Congested() {
		t.Fatal("controller not congested after saturation samples")
	}
	low := fmt.Sprintf("%s/path?src=%d&dst=%d&bid=%g", ts.URL, src, dst, e.Ctrl.Price()/4)
	resp, err := http.Get(low)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("underbid status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("X-Econ-Price") == "" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("econ refusal missing quote headers: %v", resp.Header)
	}
	var body struct {
		Price float64 `json:"price"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Price != e.Ctrl.Price() {
		t.Fatalf("refusal quote %g != posted price %g", body.Price, e.Ctrl.Price())
	}

	// An above-quote bid clears the gate.
	high := fmt.Sprintf("%s/path?src=%d&dst=%d&bid=%g", ts.URL, src, dst, e.Ctrl.Price()*2)
	if code := getJSON(t, high, nil); code != http.StatusOK {
		t.Fatalf("above-quote bid status %d, want 200", code)
	}
	st := e.Adm.Stats()
	if st.PriceRejected == 0 || st.Revenue <= 0 {
		t.Fatalf("admission counters did not move: %+v", st)
	}
}

// A non-finite bid is a malformed bid, and malformed bids are zero — at the
// HTTP door (query parameter and header) and at the library door (QueryBid
// straight into the admission gate). A NaN compares false against everything:
// it used to pay NaN into the revenue while uncongested, after which
// /econ/stats and the settlement answered 200 with an empty body (no JSON
// encoder writes NaN) and the settled window carried NaN in the ledger for
// good; congested, it was admitted over every finite bid.
func TestNonFiniteBidIsZero(t *testing.T) {
	srv, ts := econTestServer(t)
	e := srv.econ
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])
	url := fmt.Sprintf("%s/path?src=%d&dst=%d", ts.URL, src, dst)

	get := func(bidParam, bidHeader string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, url+bidParam, nil)
		if bidHeader != "" {
			req.Header.Set("X-Econ-Bid", bidHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Uncongested: admitted, as any zero bid is, and nothing is paid.
	for _, bid := range [][2]string{{"&bid=NaN", ""}, {"&bid=%2BInf", ""}, {"&bid=-Inf", ""}, {"", "NaN"}, {"", "Inf"}} {
		if code := get(bid[0], bid[1]); code != http.StatusOK {
			t.Fatalf("bid %q header %q: status %d while uncongested", bid[0], bid[1], code)
		}
	}
	if _, _, err := srv.qp.QueryBid(context.Background(), src, dst, routing.Options{}, math.NaN()); err != nil {
		t.Fatalf("QueryBid(NaN) while uncongested: %v", err)
	}
	if rev := e.Adm.Stats().Revenue; rev != 0 {
		t.Fatalf("revenue %v after non-finite bids only, want 0", rev)
	}
	var stats struct {
		Admission market.AdmissionStats `json:"admission"`
	}
	if code := getJSON(t, ts.URL+"/econ/stats", &stats); code != http.StatusOK || stats.Admission.AdmittedFree != 6 {
		t.Fatalf("/econ/stats status %d, %+v; want 6 free admissions in a decodable body", code, stats.Admission)
	}
	resp, err := http.Post(ts.URL+"/econ/settlement", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec market.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil || rec.Revenue != 0 {
		t.Fatalf("forced settlement: decode error %v, revenue %v; want a record with revenue 0", err, rec.Revenue)
	}

	// Congested: refused like the zero bid it is, at both doors.
	for i := 0; i < 20; i++ {
		if _, err := e.Ctrl.Reprice(market.Sample{Utilization: 0.95, Demand: 512}); err != nil {
			t.Fatal(err)
		}
	}
	if code := get("&bid=NaN", ""); code != http.StatusTooManyRequests {
		t.Fatalf("bid=NaN status %d under congestion, want 429", code)
	}
	var pe *queryplane.PriceError
	if _, _, err := srv.qp.QueryBid(context.Background(), src, dst, routing.Options{}, math.NaN()); !errors.As(err, &pe) {
		t.Fatalf("QueryBid(NaN) under congestion: %v, want a price refusal", err)
	}
}

func TestEconSettlementLedgerOverHTTP(t *testing.T) {
	srv, ts := econTestServer(t)
	e := srv.econ
	bs := srv.currentBrokers()
	src, dst := int(bs[0]), int(bs[len(bs)-1])

	// Serve a few paths (credits carriers), pay for one, then force a
	// window close via the POST hook.
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("%s/path?src=%d&dst=%d&bid=%g", ts.URL, src, dst, e.Ctrl.Price()*2)
		if code := getJSON(t, url, nil); code != http.StatusOK {
			t.Fatalf("path status %d", code)
		}
	}
	resp, err := http.Post(ts.URL+"/econ/settlement", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec market.Record
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settle status %d", resp.StatusCode)
	}
	if rec.Revenue <= 0 || len(rec.Brokers) == 0 {
		t.Fatalf("settled record empty: %+v", rec)
	}
	var sum float64
	for _, s := range rec.Splits {
		sum += s
	}
	if diff := sum - rec.Revenue; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("splits sum %g != revenue %g", sum, rec.Revenue)
	}

	var ledger []market.Record
	if code := getJSON(t, ts.URL+"/econ/settlement?last=5", &ledger); code != http.StatusOK {
		t.Fatalf("ledger status %d", code)
	}
	if len(ledger) != 1 || ledger[0].Window != rec.Window {
		t.Fatalf("ledger = %+v, want the settled window", ledger)
	}

	httpResp, err := http.Get(ts.URL + "/econ/settlement?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var lines int
	dec := json.NewDecoder(httpResp.Body)
	for dec.More() {
		var r market.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if lines != 1 {
		t.Fatalf("jsonl ledger lines = %d, want 1", lines)
	}

	var stats struct {
		Windows      int     `json:"windows"`
		Price        float64 `json:"price"`
		PendingUnits float64 `json:"pending_units"`
	}
	if code := getJSON(t, ts.URL+"/econ/stats", &stats); code != http.StatusOK {
		t.Fatalf("/econ/stats status %d", code)
	}
	if stats.Windows != 1 || stats.Price <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestEconMetricsExposed(t *testing.T) {
	_, ts := econTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, fam := range []string{"market_price_units", "market_admitted_total", "market_settlements_total", "market_enabled"} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
}
