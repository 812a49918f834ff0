package spdk

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
)

// TestSPDKBatchDrain verifies that several completions becoming visible
// before one poll-loop boundary are reaped by a single drain pass, the
// way spdk_nvme_qpair_process_completions batches.
func TestSPDKBatchDrain(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	const n = 12
	completions := make([]sim.Time, 0, n)
	for i := 0; i < n; i++ {
		// Same offset pattern: completions land close together.
		s.Submit(false, int64(i%4)*4096, 4096, func() {
			completions = append(completions, r.eng.Now())
		})
	}
	r.eng.Run()
	if len(completions) != n {
		t.Fatalf("completed %d/%d", len(completions), n)
	}
	// Completion times must be quantized to the poll-iteration grid
	// (plus the fixed completion dispatch cost).
	iter := s.costs.PollIter()
	dispatch := s.costs.Complete.Time
	for i, c := range completions {
		if (c-dispatch)%iter != 0 {
			t.Fatalf("completion %d at %v not on the poll grid", i, c)
		}
	}
}

func TestSPDKFinalizeBeforeAnyIO(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	s.Finalize(100 * sim.Microsecond) // no I/O ever started: no-op
	if r.core.Loads() != 0 {
		t.Fatal("finalize charged an idle stack")
	}
}

func TestSPDKSubmitChargesQpairCheck(t *testing.T) {
	r := newRig()
	s := NewStack(r.eng, r.qp, r.proc, DefaultCosts())
	done := false
	s.Submit(true, 0, 4096, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("incomplete")
	}
	// One check per submission (reset guard), before any Finalize.
	if calls := r.core.Acct(cpu.FnQpairCheck).Calls; calls != 1 {
		t.Fatalf("qpair_check calls = %d, want 1", calls)
	}
}
