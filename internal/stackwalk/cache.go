package stackwalk

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cache memoizes program-counter resolution: raw PC → interned frame name
// plus a dense per-name ID, and the PC range [lo, hi) over which that
// answer holds. One Cache fronts one SymbolTable at one granularity
// (function, or function+offset for detailed traces) and is shared by
// every walker thread of a sampling engine. A resolution the cache has
// seen is a read-side hit that costs one hash probe instead of a
// symbol-table binary search (and, at detailed granularity, a
// fmt.Sprintf); the range lets a caller skip even that probe for every
// other PC the answer covers (the sampling trie keys its edges by it).
//
// The read path is lock-free in the style of the LL/SC atomic-copy
// structures: every table slot is an atomic pointer to an immutable entry,
// readers load the table snapshot and probe entry pointers with acquire
// loads and never lock, and writers (misses) publish a fully-built entry
// into an empty slot with a release store under a mutex only writers
// contend on. A reader racing a publish sees either nil (a clean miss) or
// the complete entry — never a partial one. Growth copies into a fresh
// table published the same way; inserts into free slots never copy, so
// warm-up is linear in distinct PCs, not quadratic.
//
// IDs are dense, stable for the life of the cache, and keyed by resolved
// name — two PCs inside the same function share an ID at function
// granularity, which is what lets the sampling trie compare edges by
// integer instead of by string. Unresolvable PCs all share the "??" name
// (and therefore one ID), matching the Walker's behavior on stripped code.
type Cache struct {
	st     *SymbolTable
	detail bool

	table atomic.Pointer[pcTable]

	// misses counts slow-path resolutions — real symbol-table searches.
	// Below the cap it equals the distinct-PC count; past the cap it
	// keeps advancing (uncached PCs pay the search on every call), so
	// derived hit rates stay truthful.
	misses atomic.Int64

	mu    sync.Mutex
	count int               // distinct PCs memoized (writer-side)
	ids   map[string]uint32 // writer-side: resolved name -> dense ID
	names []string          // dense ID -> interned name
}

// pcEntry is one resolved PC, immutable once published. [lo, hi) is the
// range of PCs resolving to the same name.
type pcEntry struct {
	pc     uint64
	lo, hi uint64
	id     uint32
	name   string
}

// pcTable is a power-of-two open-addressing table of atomically published
// entry pointers, probed linearly. The slot array is shared between the
// published table and writers; only nil slots are ever written.
type pcTable struct {
	mask  uint64
	slots []atomic.Pointer[pcEntry]
}

// cacheEntryCap bounds the distinct PCs a cache will memoize — and with
// it the intern map and name list, which only grow alongside table
// entries. Past the cap, misses still resolve correctly but nothing is
// inserted or interned, so a pathological PC stream cannot grow any part
// of the cache without bound. Uncacheable resolutions of names never seen
// before carry OverflowID; consumers keying on the dense IDs must treat
// it as "no stable ID" and discriminate by name (the sampling trie
// verifies the name on every ID match for exactly this reason). A var
// only so tests can lower it.
var cacheEntryCap = 1 << 20

// OverflowID is the ID returned for a name resolved past the cache cap
// that was never interned; unlike real IDs it does not identify a name.
const OverflowID = ^uint32(0)

// NewCache wraps a symbol table in a memoizing resolver. detail selects
// function+offset granularity ("BGLML_pollfcn+0x1a4"), matching
// Walker.SampleDetailed; false resolves to bare function names like
// Walker.Sample.
func NewCache(st *SymbolTable, detail bool) *Cache {
	return &Cache{st: st, detail: detail, ids: make(map[string]uint32)}
}

// ResolveSpan maps a program counter to its dense name ID, its interned
// name, and the range [lo, hi) of PCs that resolve to the same name: at
// function granularity the containing symbol's [Addr, Addr+Size); at
// detailed granularity, and for unresolvable PCs, just [pc, pc+1). (hi
// wraps to 0 for the top PC, so callers should test membership as
// pc-lo < hi-lo.) The fast path — any PC seen before by any thread — is an
// atomic load and a probe, with no locking and no allocation.
func (c *Cache) ResolveSpan(pc uint64) (id uint32, name string, lo, hi uint64) {
	if t := c.table.Load(); t != nil {
		if e := t.lookup(pc); e != nil {
			return e.id, e.name, e.lo, e.hi
		}
	}
	return c.resolveSlow(pc)
}

// DistinctPCs reports how many distinct program counters the cache has
// memoized (bounded by the cap).
func (c *Cache) DistinctPCs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Misses reports the slow-path resolutions ever taken — each one a real
// symbol-table search. Below the cap every distinct PC misses exactly
// once, so Misses equals DistinctPCs; past it, uncached PCs keep paying
// (and counting). Callers derive the hit count as
// (total resolutions − Misses).
func (c *Cache) Misses() int64 { return c.misses.Load() }

// DistinctNames reports how many distinct resolved names (dense IDs) the
// cache has handed out.
func (c *Cache) DistinctNames() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.names)
}

func (t *pcTable) lookup(pc uint64) *pcEntry {
	for i := hashPC(pc) & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.pc == pc {
			return e
		}
	}
}

// hashPC is a 64-bit finalizer (splitmix64's mix) — PCs cluster by module
// and function, so the identity would pile them into adjacent slots.
func hashPC(pc uint64) uint64 {
	pc ^= pc >> 30
	pc *= 0xbf58476d1ce4e5b9
	pc ^= pc >> 27
	pc *= 0x94d049bb133111eb
	return pc ^ (pc >> 31)
}

// resolveSlow is the miss path: resolve through the symbol table, intern
// the name, and publish the entry. Past the cap it resolves without
// touching any cache state beyond the miss counter.
func (c *Cache) resolveSlow(pc uint64) (uint32, string, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Another writer may have published this PC while we waited on mu.
	t := c.table.Load()
	if t != nil {
		if e := t.lookup(pc); e != nil {
			return e.id, e.name, e.lo, e.hi
		}
	}
	c.misses.Add(1)
	name, lo, hi := "??", pc, pc+1
	if s, ok := c.st.Symbol(pc); ok {
		if c.detail {
			name = fmt.Sprintf("%s+0x%x", s.Name, pc-s.Addr)
		} else {
			name, lo, hi = s.Name, s.Addr, s.Addr+s.Size
		}
	}
	if c.count >= cacheEntryCap {
		// The cap check precedes the intern so a capped cache stops
		// growing everywhere, not just in the table. A name already
		// interned keeps its stable ID; a novel one gets OverflowID.
		if id, ok := c.ids[name]; ok {
			return id, c.names[id], lo, hi
		}
		return OverflowID, name, lo, hi
	}
	id, ok := c.ids[name]
	if ok {
		name = c.names[id] // the canonical interned string
	} else {
		id = uint32(len(c.names))
		c.ids[name] = id
		c.names = append(c.names, name)
	}
	// Grow at 1/2 load so probes stay short, then publish into a free
	// slot of the (possibly new) current table.
	if t == nil || (c.count+1)*2 > len(t.slots) {
		size := 64
		if t != nil {
			size = len(t.slots) * 2
		}
		nt := &pcTable{mask: uint64(size - 1), slots: make([]atomic.Pointer[pcEntry], size)}
		if t != nil {
			for i := range t.slots {
				if e := t.slots[i].Load(); e != nil {
					nt.place(e)
				}
			}
		}
		c.table.Store(nt)
		t = nt
	}
	t.place(&pcEntry{pc: pc, lo: lo, hi: hi, id: id, name: name})
	c.count++
	return id, name, lo, hi
}

// place publishes an entry into the first free slot of its probe chain.
// Serialized by the writer mutex; the release store pairs with readers'
// acquire loads.
func (t *pcTable) place(e *pcEntry) {
	for i := hashPC(e.pc) & t.mask; ; i = (i + 1) & t.mask {
		if t.slots[i].Load() == nil {
			t.slots[i].Store(e)
			return
		}
	}
}
