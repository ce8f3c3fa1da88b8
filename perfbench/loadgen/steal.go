package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// On a shared host the hypervisor at times runs other guests on the VM's
// CPUs. The guest kernel counts that time as steal in /proc/stat. While it
// lasts, every latency the benchmark measures grows and capacity shrinks,
// by as much as the store's own differences between versions: in runs on a
// 2-vCPU VM, 25-30% steal over a phase tripled GET p50 and cut closed-loop
// capacity by a third. So each timed phase is cut into sub-windows, the
// steal in each is measured, and the medians the run reports are taken over
// the calm sub-windows only.

// subWindow is the length of a timed phase's sub-windows.
const subWindow = 500 * time.Millisecond

// stealLimit is the share of a sub-window's CPU time the hypervisor may
// give to other guests with the sub-window still counted as calm.
const stealLimit = 0.05

// cpuTicks is the host's CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

// hostSteal reads the host's CPU time and the part of it stolen; zero where
// /proc/stat is unreadable, which makes every sub-window calm.
func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseUint(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of the CPU time since t0 that was stolen.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	return ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// sampleSteal measures the stolen share of each of the n sub-windows from
// start on.
func sampleSteal(start time.Time, n int) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		shares := make([]float64, n)
		time.Sleep(time.Until(start))
		prev := hostSteal()
		for i := range shares {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * subWindow)))
			cur := hostSteal()
			shares[i] = cur.since(prev)
			prev = cur
		}
		out <- shares
	}()
	return out
}

// calm marks the sub-windows a reported median is taken over: those whose
// stolen share is at most stealLimit or, when fewer than half are that calm,
// the least-stolen half.
func calm(steal []float64) []bool {
	limit := stealLimit
	if len(steal) > 0 {
		s := slices.Clone(steal)
		slices.Sort(s)
		limit = max(limit, s[(len(s)-1)/2])
	}
	keep := make([]bool, len(steal))
	for i, v := range steal {
		keep[i] = v <= limit
	}
	return keep
}

// filter returns the elements of xs whose keep entry is set.
func filter[S ~[]E, E any](xs S, keep []bool) S {
	var out S
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

// stealSummary describes a phase's steal for the run's record.
type stealSummary struct {
	median, max float64
	kept, of    int
}

func summarize(steal []float64) stealSummary {
	if len(steal) == 0 {
		return stealSummary{}
	}
	s := slices.Clone(steal)
	slices.Sort(s)
	return stealSummary{median: s[(len(s)-1)/2], max: s[len(s)-1], kept: len(filter(s, calm(s))), of: len(s)}
}

func (s stealSummary) String() string {
	return fmt.Sprintf("%d of %d calm (steal median %.1f%%, max %.1f%%)", s.kept, s.of, 100*s.median, 100*s.max)
}
