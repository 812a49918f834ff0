package nvme

import (
	"testing"

	"repro/internal/sim"
)

func TestPollBoundary(t *testing.T) {
	cases := []struct {
		now, from, iter, want sim.Time
	}{
		{now: 250, from: 250, iter: 100, want: 300},    // next boundary
		{now: 300, from: 300, iter: 100, want: 400},    // strictly after now
		{now: 250, from: 600, iter: 100, want: 600},    // from on the grid, past now
		{now: 250, from: 610, iter: 100, want: 700},    // from off the grid
		{now: 0, from: 0, iter: 100, want: 100},        // first iteration of a loop
		{now: 250, from: 250, iter: 0, want: 250},      // free loop: no grid
		{now: 250, from: 600, iter: 0, want: 600},      // free loop waits for from
		{now: 250, from: 250, iter: -5, want: 250},     // negative period is free
		{now: 7, from: 7, iter: 1, want: 8},            // unit grid
		{now: 999, from: 1000, iter: 1000, want: 1000}, // boundary exactly at from
	}
	for _, c := range cases {
		if got := PollBoundary(c.now, c.from, c.iter); got != c.want {
			t.Errorf("PollBoundary(%v, %v, %v) = %v, want %v", c.now, c.from, c.iter, got, c.want)
		}
	}
	if got := PollIters(950, 100); got != 9 {
		t.Errorf("PollIters(950, 100) = %d, want 9", got)
	}
	if got := PollIters(950, 0); got != 0 {
		t.Errorf("PollIters(950, 0) = %d, want 0", got)
	}
}

// TestLedgerBatchesOnePass rings several commands, reaps them in one
// pass, and checks the callbacks run together, once each, after the
// delivery delay — and that the pooled contexts are reused.
func TestLedgerBatchesOnePass(t *testing.T) {
	eng := sim.NewEngine()
	qp := New(eng, testDevice(eng), DefaultConfig())
	l := NewLedger(eng, qp, "test")
	const delay = 500
	var firedAt []sim.Time
	for round := 0; round < 2; round++ {
		firedAt = firedAt[:0]
		for i := 0; i < 4; i++ {
			cid := l.Track(func() { firedAt = append(firedAt, eng.Now()) })
			l.Ring(eng.Now()+sim.Time(i), Cmd{Offset: int64(i) * 4096, Length: 4096, CID: cid})
		}
		eng.Run() // every CQE posted, none reaped: no interrupts, no hook
		if l.Outstanding() != 4 {
			t.Fatalf("round %d: Outstanding = %d before reaping, want 4", round, l.Outstanding())
		}
		n := 0
		for l.Reap() {
			n++
		}
		if n != 4 || l.Outstanding() != 0 {
			t.Fatalf("round %d: reaped %d, %d outstanding; want 4, 0", round, n, l.Outstanding())
		}
		reaped := eng.Now()
		l.Deliver(delay)
		l.Deliver(delay) // nothing open: no second delivery
		eng.Run()
		if len(firedAt) != 4 {
			t.Fatalf("round %d: %d callbacks ran, want 4", round, len(firedAt))
		}
		for _, at := range firedAt {
			if at != reaped+delay {
				t.Fatalf("round %d: callback at %v, want %v", round, at, reaped+delay)
			}
		}
	}
	if l.freeBatch == nil || l.freeBatch.next != nil {
		t.Error("delivery batch not recycled to a one-entry free list")
	}
}

func TestLedgerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng := sim.NewEngine()
	qp := New(eng, testDevice(eng), DefaultConfig())
	l := NewLedger(eng, qp, "test")
	mustPanic("CID reuse", func() {
		for i := 0; i <= 1<<16; i++ {
			l.Track(func() {})
		}
	})

	eng = sim.NewEngine()
	qp = New(eng, testDevice(eng), DefaultConfig())
	l = NewLedger(eng, qp, "test")
	qp.Submit(false, 0, 4096, 9) // behind the ledger's back
	eng.Run()
	mustPanic("unknown CID", func() { l.Reap() })
}
