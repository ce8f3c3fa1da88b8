package main

import (
	"testing"
	"time"
)

type issuedOp struct {
	i           int
	due, issued time.Time
}

// TestPacerChargesStallToDueOps stalls the issuer for 50 ms while it hands
// off one op. Every op that fell due during the stall must still be issued,
// once and in order, at the first wake-up after it, and charged the full
// delay from its own due time; once caught up, lateness is back to the
// timer's overshoot.
func TestPacerChargesStallToDueOps(t *testing.T) {
	const (
		rate      = 1000 // ops/s: one op due every millisecond
		overshoot = 30 * time.Microsecond
		stall     = 50 * time.Millisecond
		stallAt   = 20
	)
	now := time.Unix(1000, 0)
	start := now
	p := newPacer(start, rate)
	p.now = func() time.Time { return now }
	p.sleep = func(d time.Duration) { now = now.Add(d + overshoot) }

	var got []issuedOp
	n := p.run(start.Add(100*time.Millisecond), func(i int, due, issued time.Time) {
		got = append(got, issuedOp{i, due, issued})
		if i == stallAt {
			now = now.Add(stall) // the issuer is stuck handing off this op
		}
	})
	if n != 100 || len(got) != 100 {
		t.Fatalf("issued %d ops (%d recorded), want 100", n, len(got))
	}
	for i, g := range got {
		if g.i != i || !g.due.Equal(p.due(i)) {
			t.Fatalf("op %d: got index %d due %v, want due %v", i, g.i, g.due, p.due(i))
		}
		if g.issued.Before(g.due) {
			t.Fatalf("op %d issued %v before due %v", i, g.issued.Sub(start), g.due.Sub(start))
		}
	}
	stallEnd := got[stallAt].issued.Add(stall)
	caughtUp := stallAt + 1
	for ; got[caughtUp].due.Before(stallEnd) || got[caughtUp].due.Equal(stallEnd); caughtUp++ {
		g := got[caughtUp]
		if !g.issued.Equal(stallEnd) {
			t.Fatalf("op %d due during the stall issued at %v, want %v", caughtUp, g.issued.Sub(start), stallEnd.Sub(start))
		}
		if late, want := g.issued.Sub(g.due), stallEnd.Sub(g.due); late != want {
			t.Fatalf("op %d charged %v late, want %v", caughtUp, late, want)
		}
	}
	if caughtUp-stallAt-1 != 50 {
		t.Fatalf("%d ops fell due during a %v stall at %d ops/s, want 50", caughtUp-stallAt-1, stall, rate)
	}
	for _, g := range got[caughtUp:] {
		if late := g.issued.Sub(g.due); late > overshoot {
			t.Fatalf("op %d still %v late after catching up", g.i, late)
		}
	}
}
