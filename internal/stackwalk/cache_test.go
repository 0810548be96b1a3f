package stackwalk

import (
	"fmt"
	"sync"
	"testing"

	"stat/internal/mpisim"
)

// resolve is ResolveSpan without the range, for tests about names and IDs.
func resolve(c *Cache, pc uint64) (uint32, string) {
	id, name, _, _ := c.ResolveSpan(pc)
	return id, name
}

func testTable(t *testing.T) *SymbolTable {
	t.Helper()
	img, err := StaticImage()
	if err != nil {
		t.Fatal(err)
	}
	st, err := ParseImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheMatchesSymbolTable pins the cached resolver to the direct one
// at both granularities, for every function in the layout plus PCs
// outside any symbol.
func TestCacheMatchesSymbolTable(t *testing.T) {
	st := testTable(t)
	plain := NewCache(st, false)
	detail := NewCache(st, true)
	var pcs []uint64
	for _, f := range mpisim.Functions() {
		pcs = append(pcs, f.Addr, f.Addr+17, f.Addr+f.Size-1)
	}
	pcs = append(pcs, 0, 0x1000, ^uint64(0))
	for _, pc := range pcs {
		wantPlain := "??"
		if n, ok := st.Resolve(pc); ok {
			wantPlain = n
		}
		wantDetail := "??"
		if n, off, ok := st.ResolveOffset(pc); ok {
			wantDetail = fmt.Sprintf("%s+0x%x", n, off)
		}
		// Resolve twice: the first miss populates, the second must hit the
		// published table and agree.
		for pass := 0; pass < 2; pass++ {
			if _, got := resolve(plain, pc); got != wantPlain {
				t.Errorf("pass %d plain Resolve(%#x) = %q, want %q", pass, pc, got, wantPlain)
			}
			if _, got := resolve(detail, pc); got != wantDetail {
				t.Errorf("pass %d detail Resolve(%#x) = %q, want %q", pass, pc, got, wantDetail)
			}
		}
	}
	if got, want := plain.DistinctPCs(), len(pcs); got != want {
		t.Errorf("plain DistinctPCs = %d, want %d", got, want)
	}
}

// TestCacheIDsKeyedByName pins the dense-ID contract: two PCs inside the
// same function share an ID at function granularity, distinct functions
// get distinct IDs, and every unresolvable PC shares the "??" ID.
func TestCacheIDsKeyedByName(t *testing.T) {
	st := testTable(t)
	c := NewCache(st, false)
	fns := mpisim.Functions()
	idA1, _ := resolve(c, fns[0].Addr+1)
	idA2, _ := resolve(c, fns[0].Addr+100)
	if idA1 != idA2 {
		t.Errorf("same-function PCs got IDs %d and %d", idA1, idA2)
	}
	idB, _ := resolve(c, fns[1].Addr+1)
	if idB == idA1 {
		t.Error("distinct functions share an ID")
	}
	u1, n1 := resolve(c, 1)
	u2, n2 := resolve(c, 2)
	if n1 != "??" || n2 != "??" || u1 != u2 {
		t.Errorf("unresolvable PCs: (%d,%q) and (%d,%q), want one shared ?? ID", u1, n1, u2, n2)
	}
	if got := c.DistinctNames(); got != 3 {
		t.Errorf("DistinctNames = %d, want 3", got)
	}
	// Detailed granularity splits by offset instead.
	d := NewCache(st, true)
	dA1, _ := resolve(d, fns[0].Addr+1)
	dA2, _ := resolve(d, fns[0].Addr+100)
	if dA1 == dA2 {
		t.Error("detailed cache shares an ID across offsets")
	}
}

// TestCacheConcurrentReaders hammers the lock-free read path from many
// goroutines while the table is still being populated; run under -race
// this is the proof the atomic-copy publication pattern holds.
func TestCacheConcurrentReaders(t *testing.T) {
	st := testTable(t)
	c := NewCache(st, false)
	fns := mpisim.Functions()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f := fns[(g+i)%len(fns)]
				pc := f.Addr + uint64((g*31+i)%int(f.Size))
				id, name := resolve(c, pc)
				if name != f.Name {
					t.Errorf("Resolve(%#x) = %q, want %q", pc, name, f.Name)
					return
				}
				id2, _ := resolve(c, pc)
				if id2 != id {
					t.Errorf("unstable ID for %#x: %d then %d", pc, id, id2)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheOverflowStaysBoundedAndTruthful exercises the cap: past it,
// resolutions stay correct, the intern state stops growing (the bound the
// cap exists for), already-interned names keep their stable IDs, novel
// names carry OverflowID, and the miss counter keeps advancing so derived
// hit rates do not silently read 100%.
func TestCacheOverflowStaysBoundedAndTruthful(t *testing.T) {
	defer SetCacheEntryCapForTest(4)()
	st := testTable(t)
	c := NewCache(st, true) // detail: every distinct PC is a distinct name
	fns := mpisim.Functions()
	base := fns[0].Addr

	// Fill to the cap.
	for i := uint64(0); i < 4; i++ {
		resolve(c, base+i)
	}
	if got := c.DistinctPCs(); got != 4 {
		t.Fatalf("DistinctPCs = %d, want 4", got)
	}
	names := c.DistinctNames()

	// Past the cap: a novel PC/name resolves correctly with OverflowID
	// and interns nothing; repeats keep paying (and counting) misses.
	for pass := 0; pass < 3; pass++ {
		id, name := resolve(c, base+100)
		if id != OverflowID {
			t.Errorf("pass %d: post-cap novel name got ID %d, want OverflowID", pass, id)
		}
		if want := fmt.Sprintf("%s+0x%x", fns[0].Name, 100); name != want {
			t.Errorf("pass %d: post-cap Resolve = %q, want %q", pass, name, want)
		}
	}
	if got := c.DistinctNames(); got != names {
		t.Errorf("post-cap resolution grew the intern state: %d -> %d names", names, got)
	}
	if got := c.DistinctPCs(); got != 4 {
		t.Errorf("post-cap resolution grew the table: DistinctPCs = %d", got)
	}
	if got := c.Misses(); got != 4+3 {
		t.Errorf("Misses = %d, want 7 (4 pre-cap + 3 uncached)", got)
	}

	// A pre-cap name resolved through a new PC keeps its stable ID.
	wantID, _ := resolve(c, base) // base+0 was among the fill PCs, so it is cached
	id2, _ := resolve(c, base)
	if id2 != wantID || wantID == OverflowID {
		t.Errorf("cached entry unstable past cap: %d then %d", wantID, id2)
	}
}

// TestCacheReadPathDoesNotAllocate: a warm hit is a pointer load plus a
// probe — no allocation, no locking.
func TestCacheReadPathDoesNotAllocate(t *testing.T) {
	st := testTable(t)
	c := NewCache(st, true) // detailed: the miss path Sprintfs, the hit path must not
	fns := mpisim.Functions()
	pcs := make([]uint64, 0, len(fns))
	for _, f := range fns {
		pcs = append(pcs, f.Addr+33)
	}
	for _, pc := range pcs {
		resolve(c, pc)
	}
	n := testing.AllocsPerRun(100, func() {
		for _, pc := range pcs {
			resolve(c, pc)
		}
	})
	if n != 0 {
		t.Errorf("warm Resolve allocates %v per sweep of %d PCs, want 0", n, len(pcs))
	}
}

// TestCacheResolveSpan pins the ranges ResolveSpan reports: the whole
// symbol at function granularity, one PC at detailed granularity and for
// unresolvable PCs (the top PC's range wraps), the same on a cached hit as
// on the miss that filled it, and past the cap too.
func TestCacheResolveSpan(t *testing.T) {
	st := testTable(t)
	f := mpisim.Functions()[3]
	plain, detail := NewCache(st, false), NewCache(st, true)
	for pass := 0; pass < 2; pass++ {
		for _, pc := range []uint64{f.Addr, f.Addr + 17, f.Addr + f.Size - 1} {
			if _, name, lo, hi := plain.ResolveSpan(pc); name != f.Name || lo != f.Addr || hi != f.Addr+f.Size {
				t.Errorf("pass %d plain ResolveSpan(%#x) = %q [%#x, %#x), want %q [%#x, %#x)",
					pass, pc, name, lo, hi, f.Name, f.Addr, f.Addr+f.Size)
			}
			if _, _, lo, hi := detail.ResolveSpan(pc); lo != pc || hi != pc+1 {
				t.Errorf("pass %d detail ResolveSpan(%#x) range [%#x, %#x), want one PC", pass, pc, lo, hi)
			}
		}
		for _, pc := range []uint64{0, 0x1000, ^uint64(0)} {
			for _, c := range []*Cache{plain, detail} {
				if _, name, lo, hi := c.ResolveSpan(pc); name != "??" || lo != pc || hi != pc+1 {
					t.Errorf("pass %d ResolveSpan(%#x) = %q [%#x, %#x), want ?? over one PC", pass, pc, name, lo, hi)
				}
			}
		}
	}
	defer SetCacheEntryCapForTest(0)()
	capped := NewCache(st, false)
	if id, name, lo, hi := capped.ResolveSpan(f.Addr + 5); id != OverflowID || name != f.Name || lo != f.Addr || hi != f.Addr+f.Size {
		t.Errorf("capped ResolveSpan = (%d, %q, [%#x, %#x)), want OverflowID over the symbol", id, name, lo, hi)
	}
}
