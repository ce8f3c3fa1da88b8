package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/perfbench/internal/deploy"
)

var errRefused = errors.New("refused")

// refusingKV fails every op, as a store that turns slow ops into fast errors.
type refusingKV struct{}

func (refusingKV) Get(string) ([]byte, error)               { return nil, errRefused }
func (refusingKV) Put(string, []byte) error                 { return errRefused }
func (refusingKV) ROTx([]string) (map[string][]byte, error) { return nil, errRefused }

func TestFailedOpsMissEveryLatencyLimit(t *testing.T) {
	w := spec{
		name:         "refused",
		mix:          mix{opGet: 1, opPut: 1, opROTx: 1},
		openRate:     2000,
		openSessions: 4,
		probePeriod:  10 * time.Millisecond,
	}
	r := newRunner(w, 1, false)
	res := r.openLoop(func(int) kv { return refusingKV{} }, 100*time.Millisecond, "pool", nil)
	if res.completed != 0 {
		t.Errorf("%d ops completed, want 0", res.completed)
	}
	for k := opKind(0); k < numKinds; k++ {
		if len(res.lat[k]) == 0 {
			t.Fatalf("no %s samples", k)
		}
		if got := res.lat[k].quantile(0.5); got != failedLatency {
			t.Errorf("%s p50 = %v, want the failed-op latency", k, got)
		}
		// The reported medians keep every failure, however much of its
		// sub-window the hypervisor stole.
		if len(res.calmLat[k]) != len(res.lat[k]) || res.calmLat[k].quantile(0.5) != failedLatency {
			t.Errorf("%s: %d of %d failures among the calm samples", k, len(res.calmLat[k]), len(res.lat[k]))
		}
	}
	if len(res.vis) != deploy.Partitions || res.vis.quantile(0.5) != failedLatency {
		t.Errorf("probe: %d visibility samples (p50 %v), want %d failed ones", len(res.vis), res.vis.quantile(0.5), deploy.Partitions)
	}
	if len(res.calmVis) != len(res.vis) {
		t.Errorf("probe: %d of %d failures among the calm samples", len(res.calmVis), len(res.vis))
	}
	if a, f := r.attempted.Load(), r.failed.Load(); a == 0 || f != a {
		t.Errorf("%d of %d ops failed, want all", f, a)
	}
}

// laggingKV is one key's store seen from DC0 (Put) and DC1 (Get): a written
// value shows at DC1 only from the lag-th GET after the PUT on.
type laggingKV struct {
	val   []byte
	lag   int
	polls int
}

func (l *laggingKV) Put(_ string, v []byte) error {
	l.val, l.polls = v, 0
	return nil
}

func (l *laggingKV) Get(string) ([]byte, error) {
	if l.polls++; l.polls < l.lag {
		return nil, nil
	}
	return l.val, nil
}

func (l *laggingKV) ROTx([]string) (map[string][]byte, error) { return nil, errRefused }

// The probe's load must not depend on the visibility latency it measures:
// every probe issues one PUT and probePolls GETs, unless its value takes
// longer than that to show.
func TestProbeLoadIndependentOfVisibility(t *testing.T) {
	r := newRunner(spec{}, 1, false)
	for _, lag := range []int{1, 2, probePolls / 2, probePolls, probePolls + 3} {
		var res probeResult
		store := &laggingKV{lag: lag}
		if !r.probeOnce(store, store, "probe0", 1, 0, &res) {
			t.Fatalf("lag %d: probe stopped", lag)
		}
		wantOps, wantExtra := int64(1+probePolls), int64(0)
		if lag > probePolls {
			wantOps, wantExtra = int64(1+lag), int64(lag-probePolls)
		}
		if res.ops != wantOps || res.extra != wantExtra || len(res.vis) != 1 {
			t.Errorf("lag %d: %d ops, %d extra, %d samples; want %d, %d, 1",
				lag, res.ops, res.extra, len(res.vis), wantOps, wantExtra)
		}
	}
	if n := r.viol.count(); n != 0 {
		t.Errorf("%d violations: %v", n, r.viol.first)
	}
}

// Once DC1 showed a probe's value, the same session must keep reading it.
func TestProbeFlagsVanishingValue(t *testing.T) {
	r := newRunner(spec{}, 1, false)
	var res probeResult
	store := &vanishingKV{}
	if r.probeOnce(store, store, "probe0", 1, 0, &res) {
		t.Fatal("probe went on after its value vanished")
	}
	if r.viol.count() != 1 {
		t.Errorf("%d violations, want 1", r.viol.count())
	}
}

// vanishingKV shows a written value on the first GET only.
type vanishingKV struct {
	val   []byte
	polls int
}

func (v *vanishingKV) Put(_ string, val []byte) error {
	v.val = val
	return nil
}

func (v *vanishingKV) Get(string) ([]byte, error) {
	if v.polls++; v.polls == 1 {
		return v.val, nil
	}
	return nil, nil
}

func (v *vanishingKV) ROTx([]string) (map[string][]byte, error) { return nil, errRefused }

func TestClosedThroughputIsMedianCalmRate(t *testing.T) {
	// Eight sub-windows at 1000 ops, one stalled by the program, and one
	// fast but more than stealLimit stolen: only the program's stall counts
	// against the mean, and neither moves the median.
	c := closedResult{
		slices: []int64{1000, 1000, 100, 1000, 1000, 1000, 1000, 1000, 1000, 5000},
		steal:  []float64{0, 0.01, 0, 0, 0.02, 0, 0, 0, 0, 0.30},
	}
	per := subWindow.Seconds()
	if got, want := c.throughput(), 1000/per; got != want {
		t.Errorf("throughput = %v, want the median calm sub-window rate %v", got, want)
	}
	if got, want := c.mean(), 13100/(10*per); math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	if a, b := c.halves(); a != 4100 || b != 9000 {
		t.Errorf("halves = %d/%d, want 4100/9000", a, b)
	}
}

func TestCalmKeepsLeastStolenHalfInAStorm(t *testing.T) {
	cases := []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0, 0.05, 0.06, 0.01}, []bool{true, true, false, true}},
		// Fewer than half at or under stealLimit: the least-stolen half.
		{[]float64{0.30, 0.10, 0.20, 0.02, 0.40}, []bool{false, true, true, true, false}},
		{[]float64{0.30, 0.30, 0.30}, []bool{true, true, true}},
		{nil, []bool{}},
	}
	for _, c := range cases {
		if got := calm(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
