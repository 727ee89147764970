package experiments

import (
	"strconv"
	"strings"
	"testing"

	"brokerset/internal/market"
	"brokerset/internal/tablefmt"
)

// testSuite builds one small shared suite for the whole test file (suite
// construction generates a topology, so share it).
var sharedSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		s, err := NewSuite(Config{Scale: 0.05, Seed: 1, Samples: 250, SCIterations: 40})
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

func TestAllExperimentsRun(t *testing.T) {
	s := suite(t)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tbl.Title == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table %+v", e.ID, tbl)
			}
			var b strings.Builder
			if err := tbl.WriteASCII(&b); err != nil {
				t.Fatalf("%s: render: %v", e.ID, err)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	e, err := Find("table1")
	if err != nil || e.ID != "table1" {
		t.Fatalf("Find(table1) = %+v, %v", e, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.1 || c.Seed != 1 || c.Samples != 800 || c.SCIterations != 300 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestScaleBudget(t *testing.T) {
	if got := scaleBudget(100, paperNodes); got != 100 {
		t.Errorf("full-scale budget = %d, want 100", got)
	}
	if got := scaleBudget(100, paperNodes/10); got != 10 {
		t.Errorf("tenth-scale budget = %d, want 10", got)
	}
	if got := scaleBudget(1, 10); got != 1 {
		t.Errorf("minimum budget = %d, want 1", got)
	}
}

// percentCell parses a "NN.NN%" cell into a fraction.
func percentCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", cell, err)
	}
	return v / 100
}

// Table 1's qualitative shape: coverage grows with alliance size; the
// full alliance lands near the paper's 99.29%; IXP-only stays low.
func TestTable1Shape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	covCol := len(tbl.Header) - 1
	ours := tbl.Rows[:3]
	prev := 0.0
	for _, row := range ours {
		c := percentCell(t, row[covCol])
		if c < prev {
			t.Fatalf("coverage not increasing with size: %v", tbl.Rows)
		}
		prev = c
	}
	if full := percentCell(t, ours[2][covCol]); full < 0.97 {
		t.Errorf("full alliance coverage = %f, want > 0.97", full)
	}
	ixpRow := tbl.Rows[len(tbl.Rows)-1]
	if ixp := percentCell(t, ixpRow[covCol]); ixp > 0.3 {
		t.Errorf("IXP-only coverage = %f, want low (<0.3)", ixp)
	}
}

// Table 3: the AS topology saturates by l=4 (the (0.99,4)-graph property);
// the WS small-world lattice is far slower.
func TestTable3Shape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	var asRow, wsRow []string
	for _, row := range tbl.Rows {
		switch row[0] {
		case "ASes with IXPs":
			asRow = row
		case "WS-Small-World":
			wsRow = row
		}
	}
	if asRow == nil || wsRow == nil {
		t.Fatalf("missing rows in %v", tbl.Rows)
	}
	asL4 := percentCell(t, asRow[4])
	if asL4 < 0.95 {
		t.Errorf("AS topology l=4 connectivity = %f, want >= 0.95 (paper 99.21%%)", asL4)
	}
	// The locality contrast is sharpest at small l: a ring lattice reaches
	// only ~2k neighbors within 2 hops while the AS graph's hubs reach a
	// large fraction of the network.
	asL2 := percentCell(t, asRow[2])
	wsL2 := percentCell(t, wsRow[2])
	if wsL2 > asL2/2 {
		t.Errorf("WS l=2 connectivity %f should be far below AS topology %f", wsL2, asL2)
	}
}

// Table 4: minimal path inflation — the alliance curve tracks the free
// curve within a few points at l >= 4.
func TestTable4Shape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows[3:] { // l >= 4
		free := percentCell(t, row[1])
		dom := percentCell(t, row[2])
		if free-dom > 0.05 {
			t.Errorf("l=%s inflation %f - %f > 0.05", row[0], free, dom)
		}
	}
}

// Fig 2a: SC lands above half of all nodes (paper: 76%).
func TestFig2aShape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	meanRow := tbl.Rows[len(tbl.Rows)-1]
	frac := percentCell(t, meanRow[2])
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("SC mean fraction = %f, want in [0.5, 0.95]", frac)
	}
}

// Fig 3: the PageRank/marginal-gain correlation decays as |B| grows.
func TestFig3Shape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	small, err1 := strconv.ParseFloat(tbl.Rows[0][2], 64)
	big, err2 := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad correlation cells: %v", tbl.Rows)
	}
	if small <= big {
		t.Errorf("correlation did not decay: %f -> %f (paper: 0.818 -> 0.227)", small, big)
	}
	if small < 0.2 {
		t.Errorf("small-set correlation %f too weak to be meaningful", small)
	}
}

// Fig 4: at the same budget MaxSG covers more of the network edge than DB.
func TestFig4Shape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %v", tbl.Rows)
	}
	dbEdge := percentCell(t, tbl.Rows[0][3])
	sgEdge := percentCell(t, tbl.Rows[1][3])
	if sgEdge <= dbEdge {
		t.Errorf("MaxSG edge coverage %f should exceed DB %f", sgEdge, dbEdge)
	}
}

// Fig 5b: connectivity grows monotonically with the converted fraction.
func TestFig5bShape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		prev := -1.0
		for _, cell := range row[1:] {
			c := percentCell(t, cell)
			if c < prev-0.02 { // sampling noise tolerance
				t.Fatalf("connectivity not increasing across conversions: %v", row)
			}
			prev = c
		}
	}
}

// Fig 5c: directional policy is strictly worse than bidirectional.
func TestFig5cShape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		bidir := percentCell(t, row[1])
		dir := percentCell(t, row[2])
		if dir >= bidir {
			t.Fatalf("directional %f not below bidirectional %f for |B|=%s", dir, bidir, row[0])
		}
	}
}

// The econ experiment must show the high-tier inclusion effect.
func TestEconShape(t *testing.T) {
	s := suite(t)
	tbl, err := s.Econ()
	if err != nil {
		t.Fatal(err)
	}
	without, err1 := strconv.ParseFloat(tbl.Rows[0][2], 64)
	with, err2 := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad adoption cells %v", tbl.Rows)
	}
	if with <= without {
		t.Errorf("high-tier inclusion did not raise mean adoption: %f vs %f", with, without)
	}
}

// Every experiment's table renders to Markdown and CSV too.
func TestRenderAllFormats(t *testing.T) {
	s := suite(t)
	tbl, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	for name, render := range map[string]func(*tablefmt.Table) error{
		"markdown": func(tb *tablefmt.Table) error { var b strings.Builder; return tb.WriteMarkdown(&b) },
		"csv":      func(tb *tablefmt.Table) error { var b strings.Builder; return tb.WriteCSV(&b) },
	} {
		if err := render(tbl); err != nil {
			t.Errorf("%s render: %v", name, err)
		}
	}
}

// TestExtMarketRowsAreSimulate: each ext-market row is what market.Simulate
// returns for that scenario and seed, cell for cell.
func TestExtMarketRowsAreSimulate(t *testing.T) {
	tbl, err := suite(t).ExtMarket()
	if err != nil {
		t.Fatal(err)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	var want [][]string
	for _, name := range []string{market.ScenarioPriceShock, market.ScenarioFreeRider, market.ScenarioDefection} {
		spec, err := market.DefaultScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			res, err := market.Simulate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			var revenue float64
			for _, rec := range res.Ledger {
				revenue += rec.Revenue
			}
			peak := res.Prices[0]
			for _, p := range res.Prices {
				peak = max(peak, p)
			}
			defected := "-"
			if res.Defected >= 0 {
				defected = strconv.Itoa(int(res.Defected))
			}
			st := res.Admission
			want = append(want, []string{name, strconv.FormatInt(seed, 10),
				u(st.Admitted), u(st.AdmittedFree), u(st.PriceRejected), f(revenue), strconv.Itoa(len(res.Ledger)),
				f(res.Prices[0]), f(peak), f(res.Prices[len(res.Prices)-1]), defected})
		}
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(want))
	}
	for i := range want {
		if strings.Join(tbl.Rows[i], "|") != strings.Join(want[i], "|") {
			t.Errorf("row %d:\n got %q\nwant %q", i, tbl.Rows[i], want[i])
		}
	}
}
