package ssd

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// refWriteBuffer is the write buffer as it was when Go maps of entry
// pointers indexed it: the oracle the open-addressed WriteBuffer must
// match call for call. It allocates a fresh entry per insert instead of
// pooling.
type refWriteBuffer struct {
	used     int64
	pageSize int
	subBits  uint32
	entries  map[int64]*bufEntry
	inflight map[int64]*bufEntry
}

func newRefWriteBuffer(pageSize int) *refWriteBuffer {
	w := NewWriteBuffer(0, pageSize)
	return &refWriteBuffer{
		pageSize: pageSize,
		subBits:  w.subBits,
		entries:  make(map[int64]*bufEntry),
		inflight: make(map[int64]*bufEntry),
	}
}

func (w *refWriteBuffer) Insert(lpn int64, mask uint32) (e *bufEntry, isNew bool) {
	e = w.entries[lpn]
	if e == nil || e.flushing {
		e = &bufEntry{lpn: lpn}
		w.entries[lpn] = e
		isNew = true
	}
	added := mask &^ e.dirty
	e.dirty |= mask
	n := int64(popcount(added)) * subUnit
	if w.subBits == 1 && added != 0 {
		n = int64(w.pageSize)
	}
	e.bytes += n
	w.used += n
	return e, isNew
}

func (w *refWriteBuffer) Covers(lpn int64, mask uint32) bool {
	if e := w.entries[lpn]; e != nil && e.dirty&mask == mask {
		return true
	}
	if e := w.inflight[lpn]; e != nil && e.dirty&mask == mask {
		return true
	}
	return false
}

func (w *refWriteBuffer) Detach(e *bufEntry) {
	if w.entries[e.lpn] == e {
		delete(w.entries, e.lpn)
	}
	w.inflight[e.lpn] = e
}

func (w *refWriteBuffer) Release(e *bufEntry) (newest bool) {
	w.used -= e.bytes
	e.bytes = 0
	if newest = w.inflight[e.lpn] == e; newest {
		delete(w.inflight, e.lpn)
	}
	return newest
}

func (w *refWriteBuffer) Entries() []*bufEntry {
	var out []*bufEntry
	for _, e := range w.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lpn < out[j].lpn })
	return out
}

// The open-addressed WriteBuffer must agree with the map-based oracle on
// every result of a seeded random Insert/Covers/Detach/Release/Entries
// sequence. The slots are few, so one slot often has a staged entry and
// several in-flight ones released out of order; an entry is sometimes
// marked flushing before it is detached, so an insert in between
// replaces it in the staged index. Sixty-four slots at up to three
// entries each push the indexes through several doublings.
func TestWriteBufferMatchesMapOracle(t *testing.T) {
	for _, ps := range []int{512, 2048, 4096} {
		w := NewWriteBuffer(1<<30, ps)
		ref := newRefWriteBuffer(ps)
		rng := sim.NewRNG(uint64(ps))
		type pair struct{ got, want *bufEntry }
		var staged []pair   // inserted, not yet detached (may repeat)
		var flushing []pair // detached, awaiting release
		same := func(op int, what string, p pair) {
			t.Helper()
			g, r := p.got, p.want
			if g.lpn != r.lpn || g.dirty != r.dirty || g.bytes != r.bytes || g.flushing != r.flushing {
				t.Fatalf("ps %d op %d %s: entry {lpn %d dirty %b bytes %d flushing %v}, oracle {lpn %d dirty %b bytes %d flushing %v}",
					ps, op, what, g.lpn, g.dirty, g.bytes, g.flushing, r.lpn, r.dirty, r.bytes, r.flushing)
			}
		}
		detach := func(p pair) {
			p.got.flushing, p.want.flushing = true, true
			w.Detach(p.got)
			ref.Detach(p.want)
			flushing = append(flushing, p)
		}
		grown := 0
		for op := 0; op < 40000; op++ {
			lpn := rng.Int63n(64)
			switch k := rng.Intn(100); {
			case k < 40:
				mask := w.MaskFor(int(rng.Int63n(int64(ps))), 1+int(rng.Int63n(int64(ps))))
				g, gNew := w.Insert(lpn, mask)
				r, rNew := ref.Insert(lpn, mask)
				if gNew != rNew {
					t.Fatalf("ps %d op %d: Insert(%d) new %v, oracle %v", ps, op, lpn, gNew, rNew)
				}
				p := pair{g, r}
				same(op, "Insert", p)
				if gNew {
					staged = append(staged, p)
				}
			case k < 55:
				mask := w.MaskFor(int(rng.Int63n(int64(ps))), 1+int(rng.Int63n(int64(ps))))
				if g, r := w.Covers(lpn, mask), ref.Covers(lpn, mask); g != r {
					t.Fatalf("ps %d op %d: Covers(%d, %b) = %v, oracle %v", ps, op, lpn, mask, g, r)
				}
			case k < 70 && len(staged) > 0:
				i := rng.Intn(len(staged))
				p := staged[i]
				staged = append(staged[:i], staged[i+1:]...)
				if k < 63 {
					detach(p)
					break
				}
				// Flushing but not yet detached: the next insert to the
				// slot must stage a fresh entry, and Detach must then
				// leave that one staged.
				p.got.flushing, p.want.flushing = true, true
				mask := w.FullMask()
				g, gNew := w.Insert(p.got.lpn, mask)
				r, rNew := ref.Insert(p.want.lpn, mask)
				if !gNew || !rNew || g == p.got {
					t.Fatalf("ps %d op %d: insert over a flushing entry reused it (new %v, oracle %v)", ps, op, gNew, rNew)
				}
				staged = append(staged, pair{g, r})
				detach(p)
			case k < 90 && len(flushing) > 0:
				i := rng.Intn(len(flushing))
				p := flushing[i]
				flushing = append(flushing[:i], flushing[i+1:]...)
				if g, r := w.Release(p.got), ref.Release(p.want); g != r {
					t.Fatalf("ps %d op %d: Release(lpn %d) newest %v, oracle %v", ps, op, p.want.lpn, g, r)
				}
			default:
				g, r := w.Entries(), ref.Entries()
				if len(g) != len(r) {
					t.Fatalf("ps %d op %d: Entries has %d entries, oracle %d", ps, op, len(g), len(r))
				}
				for i := range g {
					same(op, "Entries", pair{g[i], r[i]})
				}
			}
			if w.Used() != ref.used || w.Len() != len(ref.entries) || w.inflight.Len() != len(ref.inflight) {
				t.Fatalf("ps %d op %d: used %d staged %d in flight %d, oracle %d %d %d",
					ps, op, w.Used(), w.Len(), w.inflight.Len(), ref.used, len(ref.entries), len(ref.inflight))
			}
			grown = max(grown, w.entries.Cap(), w.inflight.Cap())
		}
		if grown < 64 {
			t.Fatalf("ps %d: the indexes grew only to %d cells", ps, grown)
		}
	}
}
