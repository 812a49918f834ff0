package sim

import "testing"

func TestFIFOOrderAndWrap(t *testing.T) {
	var f FIFO[int]
	if f.Len() != 0 {
		t.Fatal("new FIFO not empty")
	}
	// Interleave pushes and pops across several wraps so the head-index
	// compaction path runs.
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			f.Push(next)
			next++
		}
		for i := 0; i < 5; i++ {
			if got := f.Pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for f.Len() > 0 {
		if got := f.Pop(); got != want {
			t.Fatalf("drain popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
}

func TestFIFOPopReleasesSlot(t *testing.T) {
	var f FIFO[*int]
	v := new(int)
	f.Push(v)
	if f.Pop() != v {
		t.Fatal("wrong element")
	}
	// The vacated slot must not pin the element (pooled objects rely on
	// this); re-push after wrap to look at the zeroed backing slot.
	f.Push(nil)
	if f.Pop() != nil {
		t.Fatal("slot not zeroed")
	}
}

// A queue hovering just below its capacity must not compact on every
// push: compaction waits until the consumed head is half the backing
// array, so each push and pop stays amortized O(1).
func TestFIFOHoverCompactsRarely(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 63; i++ {
		f.Push(i)
	}
	const rounds = 10000
	compactions := 0
	for i := 0; i < rounds; i++ {
		f.Pop()
		head := f.head
		f.Push(i)
		if head > 0 && f.head == 0 {
			compactions++
		}
	}
	if compactions > rounds/16 {
		t.Fatalf("%d compactions in %d push/pop rounds at length 63; want at most %d", compactions, rounds, rounds/16)
	}
	if cap(f.buf) > 4*64 {
		t.Fatalf("backing array grew to %d for a 63-element queue", cap(f.buf))
	}
}
