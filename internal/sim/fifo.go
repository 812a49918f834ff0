package sim

// FIFO is a compact-on-wrap queue: Pop advances a head index instead of
// re-slicing, and Push compacts the backing slice once it is full and
// the consumed head is at least half of it, growing it otherwise. So
// memory stays O(peak queue), steady-state operation allocates nothing,
// and every operation is amortized O(1), even for a queue that hovers
// just below its capacity. It backs the open-loop admission queue, the
// volume router's per-leaf segment queues, the tier-migration order, and
// the device's flush-ready and buffer-admission queues.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the queued element count.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Front returns the oldest element without removing it. Calling it on
// an empty FIFO panics (callers gate on Len).
func (f *FIFO[T]) Front() T { return f.buf[f.head] }

// Pop removes and returns the oldest element. The vacated slot is
// zeroed so pooled or pointer elements are released immediately.
// Popping an empty FIFO panics (callers gate on Len).
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}
