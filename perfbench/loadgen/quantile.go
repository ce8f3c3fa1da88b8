package main

import (
	"slices"
	"time"
)

// samples is a set of measured durations. Each goroutine fills its own and
// the sets are merged once the phase ends, so recording takes no lock.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample such that at least q·n samples are less than or equal to it. It
// sorts s in place and returns 0 for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return s[nearestRank(q, len(s))-1]
}

// nearestRank is ceil(q·n) clamped to [1, n], in integer arithmetic where
// q·n is a whole number: the float product rounds (0.99·100 is a hair above
// 99), which would push the rank one sample too far.
func nearestRank(q float64, n int) int {
	const scale = 1_000_000
	qs := int64(q*scale + 0.5)
	rank := int((qs*int64(n) + scale - 1) / scale)
	return min(max(rank, 1), n)
}

// beyond is how many samples lie strictly above the q-quantile's rank: the
// count that makes a reported percentile meaningful (at least ten).
func beyond(q float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(q, n)
}
