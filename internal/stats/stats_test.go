package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5) {
		t.Errorf("Mean = %f, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean not zero")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1) {
		t.Errorf("perfect correlation = %f, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, -1) {
		t.Errorf("perfect anticorrelation = %f, want -1", r)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := Pearson(xs, []float64{3, 3, 3, 3, 3}); err == nil {
		t.Error("constant series accepted")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		for i := range xs {
			xs[i] = rng.Float64()*10 - 5
			ys[i] = rng.Float64()*10 - 5
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // constant series, vanishingly unlikely
		}
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(q, 3) {
		t.Errorf("median = %f, want 3", q)
	}
	q, _ = Quantile(xs, 0)
	if !almostEq(q, 1) {
		t.Errorf("min = %f, want 1", q)
	}
	q, _ = Quantile(xs, 1)
	if !almostEq(q, 5) {
		t.Errorf("max = %f, want 5", q)
	}
	q, _ = Quantile(xs, 0.25)
	if !almostEq(q, 2) {
		t.Errorf("q25 = %f, want 2", q)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q > 1 accepted")
	}
}
