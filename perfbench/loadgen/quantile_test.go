package main

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// referenceQuantile is the nearest-rank quantile by its definition: the
// smallest sample v such that at least q·n samples are <= v, found by
// counting rather than by index arithmetic.
func referenceQuantile(s []time.Duration, q float64) time.Duration {
	sorted := slices.Clone(s)
	slices.Sort(sorted)
	for _, v := range sorted {
		atMost := 0
		for _, w := range s {
			if w <= v {
				atMost++
			}
		}
		if float64(atMost) >= q*float64(len(s))-1e-9 {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

func TestQuantileMatchesSortAndIndexReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	qs := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for n := 1; n <= 300; n++ {
		s := make(samples, n)
		for i := range s {
			// Few distinct values, so ties are common.
			s[i] = time.Duration(r.IntN(n/3+2)) * time.Microsecond
		}
		for _, q := range qs {
			want := referenceQuantile(s, q)
			if got := slices.Clone(s).quantile(q); got != want {
				t.Fatalf("n=%d q=%v: quantile %v, reference %v", n, q, got, want)
			}
		}
	}
}

func TestNearestRankExactProducts(t *testing.T) {
	// 0.99·100 is a hair above 99 in floating point; the rank must be 99.
	cases := []struct {
		q    float64
		n    int
		want int
	}{{0.99, 100, 99}, {0.99, 1000, 990}, {0.5, 2, 1}, {0.5, 3, 2}, {0.99, 1, 1}, {1, 7, 7}, {0.001, 10, 1}}
	for _, c := range cases {
		if got := nearestRank(c.q, c.n); got != c.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
	if got := beyond(0.99, 1000); got != 10 {
		t.Errorf("beyond(0.99, 1000) = %d, want 10", got)
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}
