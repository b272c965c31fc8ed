package stat

import (
	"math"
	"testing"
)

func TestMedianOfPasses(t *testing.T) {
	// Op 0 is steady; op 1 has one slow pass that its median must hide.
	passes := [][]float64{{1, 10}, {1, 900}, {1, 12}}
	got := MedianOfPasses(passes)
	if got[0] != 1 || got[1] != 12 {
		t.Fatalf("MedianOfPasses = %v, want [1 12]", got)
	}
	if MedianOfPasses(nil) != nil {
		t.Fatal("no passes must give no ops")
	}
}

func TestMidMeanIgnoresTheOuterQuarters(t *testing.T) {
	// Eight calls, one of them interrupted: the middle four are 3, 4, 5, 6.
	if got := MidMean([]float64{6, 1, 5, 2, 9000, 3, 7, 4}); got != 4.5 {
		t.Fatalf("MidMean = %v, want 4.5", got)
	}
	if got := MidMean([]float64{7}); got != 7 {
		t.Fatalf("MidMean of one value = %v, want 7", got)
	}
	if MidMean(nil) != 0 {
		t.Fatal("MidMean of nothing must be 0")
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 99}, {1000, 99}, {999, 98}, {500, 98}, {200, 95}, {120, 90}, {100, 90}, {40, 75}, {20, 50}, {3, 50}} {
		got := TailPercentile(c.n)
		if got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (100 - got) / 100; got > 50 && beyond < 10 {
			t.Errorf("TailPercentile(%d) = %v leaves only %v samples beyond", c.n, got, beyond)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 100: 50, 25: 20, 90: 46} {
		if got := Percentile(s, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty sample must read 0")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 5, 3, 7}, 2, 5, 8},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{2.5, 2.6, 2.4, 2.55, 2.45, 3.1}, 2.4375, 2.525, 2.725},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-9 {
		t.Errorf("Spread = %v, want 1", s)
	}
}
