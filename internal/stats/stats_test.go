package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 {
		t.Error("zero-value summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Std()-2) > 1e-12 {
		t.Errorf("std = %v, want 2", s.Std())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		var sum float64
		clean := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
			s.Add(x)
			sum += x
		}
		if len(clean) == 0 {
			return s.N() == 0
		}
		naive := sum / float64(len(clean))
		return math.Abs(s.Mean()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantiles(t *testing.T) {
	var c CDF
	if c.Quantile(0.5) != 0 || c.At(1) != 0 {
		t.Error("empty CDF should report zeros")
	}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if got := c.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("q1 = %v", got)
	}
	if got := c.At(50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("At(50) = %v, want 0.5", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
}

func TestCDFGrow(t *testing.T) {
	var grown, plain CDF
	grown.Add(3)
	plain.Add(3)
	grown.Grow(1000)
	reserved := cap(grown.xs)
	for i := 0; i < 1000; i++ {
		grown.Add(float64(i % 7))
		plain.Add(float64(i % 7))
	}
	if reserved < 1001 || cap(grown.xs) != reserved {
		t.Errorf("Grow(1000) on one sample reserved %d, and the adds moved it to %d", reserved, cap(grown.xs))
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if grown.Quantile(q) != plain.Quantile(q) {
			t.Errorf("q%v: grown %v, plain %v", q, grown.Quantile(q), plain.Quantile(q))
		}
	}
}

func TestCDFQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c CDF
	for i := 0; i < 500; i++ {
		c.Add(rng.NormFloat64())
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := c.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestCDFAddNAndPoints(t *testing.T) {
	var c CDF
	c.AddN(1, 3)
	c.AddN(2, 1)
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.At(1); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("At(1) = %v, want 0.75", got)
	}
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0][0] != 1 || pts[4][0] != 2 {
		t.Errorf("x range = %v..%v", pts[0][0], pts[4][0])
	}
	if pts[4][1] != 1 {
		t.Errorf("last CDF value = %v, want 1", pts[4][1])
	}
	// Degenerate single-value and n==1 cases.
	var d CDF
	d.Add(5)
	if pts := d.Points(3); len(pts) != 1 || pts[0][0] != 5 || pts[0][1] != 1 {
		t.Errorf("degenerate points = %v", pts)
	}
	if d.Points(0) != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestHistogram(t *testing.T) {
	h := MustNewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.999, 10, 11} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 2 {
		t.Errorf("under/over = %d/%d", under, over)
	}
	if h.Bin(0) != 2 { // 0 and 1.9
		t.Errorf("bin0 = %d", h.Bin(0))
	}
	if h.Bin(1) != 1 { // 2
		t.Errorf("bin1 = %d", h.Bin(1))
	}
	if h.Bin(4) != 1 { // 9.999
		t.Errorf("bin4 = %d", h.Bin(4))
	}
	if h.NumBins() != 5 {
		t.Errorf("numbins = %d", h.NumBins())
	}
	if f := h.Fraction(0); math.Abs(f-2.0/7.0) > 1e-12 {
		t.Errorf("fraction = %v", f)
	}
}

func TestHistogramPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { MustNewHistogram(0, 0, 5) },
		func() { MustNewHistogram(1, 0, 5) },
		func() { MustNewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramCountsSumToTotal(t *testing.T) {
	f := func(xs []float64) bool {
		h := MustNewHistogram(-5, 5, 7)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		sum := 0
		for i := 0; i < h.NumBins(); i++ {
			sum += h.Bin(i)
		}
		u, o := h.OutOfRange()
		return sum+u+o == n && h.Total() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesAndTable(t *testing.T) {
	var a, b Series
	a.Name, b.Name = "LRU", "StarCDN"
	for i := 1; i <= 3; i++ {
		a.Append(float64(i*10), float64(50+i))
		b.Append(float64(i*10), float64(60+i))
	}
	out := Table("cache GB", a, b)
	if !strings.Contains(out, "LRU") || !strings.Contains(out, "StarCDN") {
		t.Errorf("missing headers: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want header + 3 rows, got %d lines", len(lines))
	}
	// Mismatched lengths should not panic.
	b.Append(40, 70)
	_ = Table("x", a, b)
}

func TestRatioPct(t *testing.T) {
	if Ratio(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Error("division by zero should yield 0")
	}
	if Ratio(1, 2) != 0.5 {
		t.Error("ratio wrong")
	}
	if Pct(1, 4) != 25 {
		t.Error("pct wrong")
	}
}
