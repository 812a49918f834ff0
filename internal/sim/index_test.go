package sim

import (
	"math"
	"testing"
)

// clusteredKeys returns keys whose home cells in a 16-cell table are the
// last four, so their probe chains run off the end and wrap to cell 0
// (and, in larger tables, still bunch into few runs). Half sit just
// below MaxInt32, the top of the key range.
func clusteredKeys() []int64 {
	t := Index{mask: 15}
	var keys []int64
	for _, start := range []int64{0, math.MaxInt32 - 1<<12} {
		for k, n := start, 0; n < 24; k++ {
			if t.home(k) >= 12 {
				keys = append(keys, k)
				n++
			}
		}
	}
	return keys
}

// FuzzIndex drives random Put/PutAt/Get/Remove/grow sequences over
// clustered keys and checks the table against a Go map after every
// step: every key reads back its value, nothing else is found, Len
// matches, and the load never passes one half.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("put put put get remove grow put remove remove get"))
	seq := make([]byte, 0, 3*400)
	for i := 0; i < 400; i++ {
		seq = append(seq, byte(i*7), byte(i*13+i/17), byte(i))
	}
	f.Add(seq)
	// Removes and probes on a zero Index, before any insert.
	f.Add([]byte{4, 0, 0, 5, 9, 0, 6, 3, 0, 3, 1, 0, 0, 1, 0, 4, 1, 0, 6, 1, 0})
	keys := clusteredKeys()
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Index
		want := map[int64]int32{}
		for n := 0; n+2 < len(ops); n += 3 {
			key := keys[int(ops[n+1])%len(keys)]
			val := int32(ops[n+2]) - 128
			switch ops[n] % 8 {
			case 0, 1, 2:
				tab.Put(key, val)
				want[key] = val
			case 3:
				// The fixed-size path: insert only below half load, into
				// a table with storage (Slot's precondition).
				if tab.Cap() == 0 {
					continue
				}
				i, ok := tab.Slot(key)
				switch {
				case ok:
					tab.SetVal(i, val)
				case tab.Crowded():
					continue
				default:
					tab.PutAt(i, key, val)
				}
				want[key] = val
			case 4, 5:
				tab.Remove(key)
				delete(want, key)
			case 6:
				if tab.Cap() == 0 {
					continue
				}
				if i, ok := tab.Slot(key); ok {
					tab.DeleteAt(i)
				}
				delete(want, key)
			case 7:
				if tab.Cap() < 256 { // keep repeated doublings small
					tab.grow()
				}
			}
			if tab.Len() != len(want) {
				t.Fatalf("op %d: Len %d, want %d", n/3, tab.Len(), len(want))
			}
			if tab.Cap() > 0 && 2*tab.Len() > tab.Cap() {
				t.Fatalf("op %d: %d keys in %d cells", n/3, tab.Len(), tab.Cap())
			}
			for _, k := range keys {
				v, ok := tab.Get(k)
				w, wok := want[k]
				if ok != wok || v != w {
					t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", n/3, k, v, ok, w, wok)
				}
			}
			held := 0
			for i := 0; i < tab.Cap(); i++ {
				if k, v, ok := tab.At(i); ok {
					held++
					if w, wok := want[k]; !wok || v != w {
						t.Fatalf("op %d: cell %d holds %d=%d, want %d,%v", n/3, i, k, v, w, wok)
					}
				}
			}
			if held != len(want) {
				t.Fatalf("op %d: %d cells occupied, want %d", n/3, held, len(want))
			}
		}
	})
}

// A table grows from no storage only when an insert would pass half
// load, and a Get on it never allocates.
func TestIndexGrowsAtHalfLoad(t *testing.T) {
	var tab Index
	if _, ok := tab.Get(7); ok || tab.Cap() != 0 {
		t.Fatal("an empty table found a key or holds storage")
	}
	for k := int64(0); k < 1000; k++ {
		before := tab.Cap()
		tab.Put(k, int32(k))
		if grew, crowded := tab.Cap() != before, 2*(int(k)+1) > before; grew != crowded {
			t.Fatalf("inserting key %d into %d cells: grew %v, past half load %v", k+1, before, grew, crowded)
		}
	}
	if tab.Cap() != 2048 {
		t.Fatalf("1000 keys in %d cells, want 2048", tab.Cap())
	}
	if n := testing.AllocsPerRun(100, func() { tab.Get(500); tab.Get(5000) }); n != 0 {
		t.Fatalf("Get allocates %.0f times", n)
	}
}
