package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || !almostEq(r, 1) {
		t.Errorf("Pearson = %v, %v; want 1", r, err)
	}
}

func TestPearsonPerfectNegative(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{8, 6, 4, 2}
	r, _ := Pearson(x, y)
	if !almostEq(r, -1) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	r, err := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Errorf("flat series Pearson = %v, %v; want 0, nil", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLength {
		t.Errorf("length mismatch error = %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
}

func TestPearsonSymmetric(t *testing.T) {
	f := func(x, y []float64) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		if n < 2 {
			return true
		}
		x, y = x[:n], y[:n]
		for _, v := range append(append([]float64{}, x...), y...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a, err1 := Pearson(x, y)
		b, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return err1 == err2
		}
		return math.Abs(a-b) < 1e-6 && a >= -1.0000001 && a <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPctError(t *testing.T) {
	cases := []struct{ want, got, out float64 }{
		{10, 10, 0},
		{10, 11, 10},
		{10, 9, 10},
		{0, 0, 0},
		{0, 5, 100},
		{0.5, 0.25, 50},
	}
	for _, c := range cases {
		if e := PctError(c.want, c.got); !almostEq(e, c.out) {
			t.Errorf("PctError(%v,%v) = %v, want %v", c.want, c.got, e, c.out)
		}
	}
}

func TestAbsError(t *testing.T) {
	if e := AbsError(0.50, 0.55); !almostEq(e, 5) {
		t.Errorf("AbsError = %v, want 5", e)
	}
}

func TestMeanAbsPctError(t *testing.T) {
	m, err := MeanAbsPctError([]float64{10, 20}, []float64{11, 18})
	if err != nil || !almostEq(m, 10) {
		t.Errorf("MeanAbsPctError = %v, %v", m, err)
	}
	if _, err := MeanAbsPctError([]float64{1}, []float64{}); err != ErrLength {
		t.Error("length mismatch not reported")
	}
	if _, err := MeanAbsPctError(nil, nil); err == nil {
		t.Error("empty input not reported")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5) {
		t.Errorf("Mean = %v", m)
	}
	if s := StdDev(xs); !almostEq(s, 2) {
		t.Errorf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice mean/std not 0")
	}
}

func TestHistDistance(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.AddN(1, 10)
	b.AddN(1, 99)
	if d := HistDistance(a, b); !almostEq(d, 0) {
		t.Errorf("same-shape distance = %v", d)
	}
	c := NewHistogram()
	c.AddN(2, 5)
	if d := HistDistance(a, c); !almostEq(d, 1) {
		t.Errorf("disjoint distance = %v", d)
	}
	if d := HistDistance(NewHistogram(), NewHistogram()); d != 0 {
		t.Errorf("empty-empty distance = %v", d)
	}
	if d := HistDistance(a, NewHistogram()); d != 1 {
		t.Errorf("empty-vs-nonempty distance = %v", d)
	}
}

func TestHistDistanceBounds(t *testing.T) {
	f := func(ka, kb []int64) bool {
		a, b := NewHistogram(), NewHistogram()
		for _, k := range ka {
			a.Add(k % 16)
		}
		for _, k := range kb {
			b.Add(k % 16)
		}
		d := HistDistance(a, b)
		return d >= 0 && d <= 1.0000001 && almostEq(HistDistance(a, a), 0) || (a.Total() == 0 && d <= 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almostEq(s.Mean, 2) {
		t.Errorf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}
