package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"haswellep/internal/addr"
	"haswellep/internal/units"
)

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Forward: "F",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	if State(42).String() != "State(42)" {
		t.Error("unknown state string wrong")
	}
}

func TestStatePredicates(t *testing.T) {
	if Invalid.Valid() || !Modified.Valid() {
		t.Error("Valid wrong")
	}
	if !Modified.Dirty() || Exclusive.Dirty() {
		t.Error("Dirty wrong")
	}
	if !Exclusive.Unique() || !Modified.Unique() || Shared.Unique() || Forward.Unique() {
		t.Error("Unique wrong")
	}
	for _, s := range []State{Modified, Exclusive, Forward} {
		if !s.CanForward() {
			t.Errorf("%v must forward", s)
		}
	}
	if Shared.CanForward() || Invalid.CanForward() {
		t.Error("S/I must not forward")
	}
	if !Shared.SharedLike() || !Forward.SharedLike() || Exclusive.SharedLike() {
		t.Error("SharedLike wrong")
	}
}

// TestLineIs16Bytes pins the packed line layout: a byte-wide State beside
// the 32-bit core-valid mask keeps a line at 16 bytes.
func TestLineIs16Bytes(t *testing.T) {
	if got := reflect.TypeOf(Line{}).Size(); got != 16 {
		t.Errorf("Line is %d bytes, want 16", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	good := Geometry{SizeBytes: 32 * units.KiB, Ways: 8, Name: "t"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []Geometry{
		{SizeBytes: 0, Ways: 8},
		{SizeBytes: 32 * units.KiB, Ways: 0},
		{SizeBytes: 100, Ways: 1},        // not line multiple
		{SizeBytes: 3 * 64 * 8, Ways: 8}, // 3 sets: not a power of two
		{SizeBytes: 64 * 10, Ways: 3},    // lines not divisible by ways
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestGeometrySets(t *testing.T) {
	if L1DGeometry.Sets() != 64 {
		t.Errorf("L1 sets = %d, want 64", L1DGeometry.Sets())
	}
	if L2Geometry.Sets() != 512 {
		t.Errorf("L2 sets = %d, want 512", L2Geometry.Sets())
	}
	if L3SliceGeometry.Sets() != 2048 {
		t.Errorf("L3 slice sets = %d, want 2048", L3SliceGeometry.Sets())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New must panic on invalid geometry")
		}
	}()
	New(Geometry{SizeBytes: 100, Ways: 3, Name: "bad"})
}

func tinyCache() *Cache {
	// 4 sets x 2 ways.
	return New(Geometry{SizeBytes: 8 * 64, Ways: 2, Name: "tiny"})
}

func TestInsertLookup(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 1, State: Exclusive})
	if ln, ok := c.Lookup(1); !ok || ln.State != Exclusive {
		t.Fatal("inserted line not found")
	}
	if c.StateOf(1) != Exclusive {
		t.Error("StateOf wrong")
	}
	if c.StateOf(2) != Invalid {
		t.Error("absent line must be Invalid")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestInsertReplaceInPlace(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 1, State: Exclusive})
	v, ev := c.Insert(Line{Addr: 1, State: Modified})
	if ev {
		t.Fatalf("in-place update evicted %+v", v)
	}
	if c.StateOf(1) != Modified || c.Len() != 1 {
		t.Error("in-place update failed")
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	c := tinyCache()
	defer func() {
		if recover() == nil {
			t.Error("inserting Invalid must panic")
		}
	}()
	c.Insert(Line{Addr: 1, State: Invalid})
}

func TestLRUEviction(t *testing.T) {
	c := tinyCache()                                   // 4 sets, 2 ways; addresses with same low bits share a set
	c.Insert(Line{Addr: 0, State: Exclusive})          // set 0
	c.Insert(Line{Addr: 4, State: Exclusive})          // set 0
	v, ev := c.Insert(Line{Addr: 8, State: Exclusive}) // set 0, evicts LRU = addr 0
	if !ev || v.Addr != 0 {
		t.Fatalf("expected eviction of line 0, got %+v (evicted=%v)", v, ev)
	}
	if c.Contains(0) {
		t.Error("evicted line still present")
	}
}

func TestTouchRefreshesLRU(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 0, State: Exclusive})
	c.Insert(Line{Addr: 4, State: Exclusive})
	if !c.Touch(0) { // 0 becomes MRU, 4 becomes LRU
		t.Fatal("touch missed present line")
	}
	v, ev := c.Insert(Line{Addr: 8, State: Exclusive})
	if !ev || v.Addr != 4 {
		t.Fatalf("expected eviction of line 4 after touch, got %+v", v)
	}
}

func TestTouchMiss(t *testing.T) {
	c := tinyCache()
	if c.Touch(99) {
		t.Error("touch of absent line must return false")
	}
	hits, misses, _ := c.Stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
	c.ResetStats()
	if h, m, e := c.Stats(); h+m+e != 0 {
		t.Error("ResetStats failed")
	}
}

func TestUpdate(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 1, State: Exclusive})
	ok := c.Update(1, func(ln *Line) { ln.State = Modified; ln.CoreValid = 0b11 })
	if !ok || c.StateOf(1) != Modified {
		t.Fatal("update failed")
	}
	if ln, _ := c.Lookup(1); ln.CoreValid != 0b11 {
		t.Error("core valid bits not updated")
	}
	if c.Update(99, func(*Line) {}) {
		t.Error("update of absent line must return false")
	}
}

func TestUpdateToInvalidDropsLine(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 1, State: Exclusive})
	c.Update(1, func(ln *Line) { ln.State = Invalid })
	if c.Contains(1) || c.Len() != 0 {
		t.Error("line set to Invalid must vanish")
	}
}

func TestInvalidate(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 1, State: Modified})
	ln, ok := c.Invalidate(1)
	if !ok || ln.State != Modified {
		t.Fatal("invalidate must return the dropped entry")
	}
	if _, ok := c.Invalidate(1); ok {
		t.Error("double invalidate must miss")
	}
}

func TestVictimIfMiss(t *testing.T) {
	c := tinyCache()
	c.Insert(Line{Addr: 0, State: Exclusive})
	if _, would := c.VictimIfMiss(4); would {
		t.Error("set not full: no victim expected")
	}
	c.Insert(Line{Addr: 4, State: Exclusive})
	v, would := c.VictimIfMiss(8)
	if !would || v.Addr != 0 {
		t.Errorf("victim = %+v (%v), want line 0", v, would)
	}
	if _, would := c.VictimIfMiss(0); would {
		t.Error("present line must not predict a victim")
	}
	if c.Contains(8) {
		t.Error("VictimIfMiss must not mutate")
	}
}

func TestClearAndForEach(t *testing.T) {
	c := tinyCache()
	for i := 0; i < 8; i++ {
		c.Insert(Line{Addr: addr.LineAddr(i), State: Shared})
	}
	n := 0
	c.ForEach(func(Line) { n++ })
	if n != c.Len() {
		t.Errorf("ForEach visited %d, Len = %d", n, c.Len())
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear failed")
	}
}

// TestCacheNeverExceedsCapacity drives random operations and checks the
// structural invariants.
func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := tinyCache()
		for i := 0; i < 500; i++ {
			a := addr.LineAddr(rng.Intn(32))
			switch rng.Intn(4) {
			case 0:
				c.Insert(Line{Addr: a, State: State(1 + rng.Intn(4))})
			case 1:
				c.Touch(a)
			case 2:
				c.Invalidate(a)
			case 3:
				c.Update(a, func(ln *Line) { ln.State = Shared })
			}
			if c.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestLookupAfterInsert: anything inserted and not evicted is findable.
func TestLookupAfterInsert(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Geometry{SizeBytes: 64 * 64, Ways: 4, Name: "p"})
		present := map[addr.LineAddr]bool{}
		for i := 0; i < 300; i++ {
			a := addr.LineAddr(rng.Intn(128))
			v, ev := c.Insert(Line{Addr: a, State: Exclusive})
			present[a] = true
			if ev {
				delete(present, v.Addr)
			}
		}
		for a := range present {
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCoreCaches(t *testing.T) {
	cc := NewCoreCaches(3)
	if cc.Core != 3 {
		t.Error("core id lost")
	}
	cc.L1D.Insert(Line{Addr: 1, State: Modified})
	cc.L2.Insert(Line{Addr: 1, State: Modified})
	if lvl, st := cc.HighestLevelState(1); lvl != 1 || st != Modified {
		t.Errorf("HighestLevelState = %d, %v", lvl, st)
	}
	cc.L1D.Invalidate(1)
	if lvl, st := cc.HighestLevelState(1); lvl != 2 || st != Modified {
		t.Errorf("after L1 drop: %d, %v", lvl, st)
	}
	if !cc.HasValid(1) {
		t.Error("HasValid wrong")
	}
	cc.Downgrade(1, Shared)
	if cc.L2.StateOf(1) != Shared {
		t.Error("Downgrade failed")
	}
	if st := cc.InvalidateBoth(1); st != Shared {
		t.Errorf("InvalidateBoth = %v", st)
	}
	if cc.HasValid(1) {
		t.Error("line survived InvalidateBoth")
	}
	if st := cc.InvalidateBoth(1); st != Invalid {
		t.Error("empty InvalidateBoth must be Invalid")
	}
}

func TestInvalidateBothPrefersModified(t *testing.T) {
	cc := NewCoreCaches(0)
	cc.L1D.Insert(Line{Addr: 1, State: Shared})
	cc.L2.Insert(Line{Addr: 1, State: Modified})
	if st := cc.InvalidateBoth(1); st != Modified {
		t.Errorf("InvalidateBoth = %v, want M (the dirtier copy wins)", st)
	}
}

func TestL3SliceCoreValid(t *testing.T) {
	s := NewL3Slice(4)
	s.Insert(Line{Addr: 1, State: Exclusive})
	if !s.SetCoreValid(1, 3, true) {
		t.Fatal("SetCoreValid on present line failed")
	}
	if s.CoreValidBits(1) != 1<<3 {
		t.Errorf("bits = %b", s.CoreValidBits(1))
	}
	s.SetCoreValid(1, 7, true)
	if s.PopcountValid(1) != 2 {
		t.Errorf("popcount = %d", s.PopcountValid(1))
	}
	s.SetCoreValid(1, 3, false)
	if s.CoreValidBits(1) != 1<<7 {
		t.Errorf("bits after clear = %b", s.CoreValidBits(1))
	}
	if s.SetCoreValid(99, 0, true) {
		t.Error("SetCoreValid on absent line must fail")
	}
	if s.CoreValidBits(99) != 0 || s.PopcountValid(99) != 0 {
		t.Error("absent line must have zero bits")
	}
}

func TestStandardGeometries(t *testing.T) {
	// Table II of the paper.
	if L1DGeometry.SizeBytes != 32*units.KiB || L1DGeometry.Ways != 8 {
		t.Error("L1D geometry wrong")
	}
	if L2Geometry.SizeBytes != 256*units.KiB || L2Geometry.Ways != 8 {
		t.Error("L2 geometry wrong")
	}
	if L3SliceGeometry.SizeBytes != 2560*units.KiB || L3SliceGeometry.Ways != 20 {
		t.Error("L3 slice geometry wrong")
	}
}
