package cache

import (
	"testing"

	"haswellep/internal/addr"
)

// TestFilterNeverFalseNegative drives a small cache through a dense
// insert/touch/update/invalidate mix and verifies, after every operation,
// that each set's presence filter covers every resident way (a false
// negative would make Lookup deny a cached line) and that Lookup agrees
// with a filter-free scan.
func TestFilterNeverFalseNegative(t *testing.T) {
	c := New(Geometry{SizeBytes: 4 * 1024, Ways: 4, Name: "filter-test"}) // 16 sets
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	lines := make([]addr.LineAddr, 256)
	for i := range lines {
		lines[i] = addr.LineAddr(1<<24 + uint64(i))
	}
	audit := func(step int) {
		t.Helper()
		for si := range c.sets {
			w := c.ways(si)
			for i := range w {
				if c.sets[si].filt&filterBit(w[i].Addr) == 0 {
					t.Fatalf("step %d: set %d filter misses resident line %#x", step, si, w[i].Addr)
				}
			}
		}
		for _, l := range lines {
			want, wantOK := Line{}, false
			w := c.ways(int(uint64(l) & c.setMask))
			for i := range w {
				if w[i].Addr == l && w[i].State.Valid() {
					want, wantOK = w[i], true
				}
			}
			got, ok := c.Lookup(l)
			if ok != wantOK || got != want {
				t.Fatalf("step %d: Lookup(%#x) = %+v,%v; scan says %+v,%v", step, l, got, ok, want, wantOK)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		l := lines[next()%uint64(len(lines))]
		switch next() % 5 {
		case 0, 1:
			st := []State{Shared, Exclusive, Modified}[next()%3]
			c.Insert(Line{Addr: l, State: st})
		case 2:
			c.Touch(l)
		case 3:
			c.Update(l, func(w *Line) {
				if next()%2 == 0 {
					w.State = Invalid // exercise the drop path
				} else {
					w.State = Shared
				}
			})
		case 4:
			c.Invalidate(l)
		}
		if step%512 == 0 {
			audit(step)
		}
	}
	audit(-1)
	c.Clear()
	for si := range c.sets {
		if c.sets[si].filt != 0 {
			t.Fatalf("Clear left filter bits in set %d", si)
		}
	}
}
