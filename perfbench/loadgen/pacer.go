package main

import "time"

// pacer schedules an open loop: op i is due at start + i/rate, whatever
// happened to the ops before it. At every wake-up it issues every op whose
// due time has passed, each stamped with its own due time, then sleeps until
// the next op is due. A wake-up that comes late (timer overshoot, a
// descheduled generator) therefore delays ops without dropping them and
// without shifting the schedule, and the delay is charged to the ops it
// delayed: their latency runs from when they were due.
type pacer struct {
	start time.Time
	rate  float64 // ops per second
	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, rate float64) *pacer {
	return &pacer{start: start, rate: rate, now: time.Now, sleep: time.Sleep}
}

// due returns op i's due time.
func (p *pacer) due(i int) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
}

// run issues every op due before end, in order. issue receives the op's
// index, its due time and the time the pacer handed it off; the difference is
// how late the generator ran. It returns the number of ops issued.
func (p *pacer) run(end time.Time, issue func(i int, due, issued time.Time)) int {
	i := 0
	for {
		d := p.due(i)
		if !d.Before(end) {
			return i
		}
		now := p.now()
		if d.After(now) {
			p.sleep(d.Sub(now))
			continue
		}
		issue(i, d, now)
		i++
	}
}
