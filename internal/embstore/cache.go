package embstore

import (
	"fmt"
	"math"
	"sync"
)

// CachePolicy selects how the hot-row cache decides what stays resident.
type CachePolicy int

const (
	// CacheNone disables caching (reads pass straight to the backend).
	CacheNone CachePolicy = iota
	// CacheLRU admits every miss and evicts the least-recently-used row.
	CacheLRU
	// CacheLFUAdmit is frequency-based admission: a missed row is only
	// admitted on its second touch (a doorkeeper counts first touches), so
	// one-hit-wonder rows from the long Zipf tail pass through without
	// displacing the hot set. Resident rows still age out by LRU.
	CacheLFUAdmit
)

// String implements fmt.Stringer.
func (p CachePolicy) String() string {
	switch p {
	case CacheNone:
		return "none"
	case CacheLRU:
		return "lru"
	case CacheLFUAdmit:
		return "lfu"
	default:
		return fmt.Sprintf("CachePolicy(%d)", int(p))
	}
}

// CacheConfig sizes the hot-row cache. Exactly one of Rows or Bytes must be
// positive when Policy is not CacheNone; Bytes converts to rows at attach
// time using the table's vector width.
type CacheConfig struct {
	Policy CachePolicy
	Rows   int   // capacity in rows
	Bytes  int64 // capacity in bytes of row payload (rows*dim*4)
}

// Validate checks the configuration.
func (c CacheConfig) Validate() error {
	if c.Policy == CacheNone {
		if c.Rows != 0 || c.Bytes != 0 {
			return fmt.Errorf("embstore: cache capacity set without a cache policy")
		}
		return nil
	}
	if (c.Rows > 0) == (c.Bytes > 0) {
		return fmt.Errorf("embstore: cache needs exactly one of rows or bytes capacity, got rows=%d bytes=%d", c.Rows, c.Bytes)
	}
	return nil
}

// capacityRows resolves the configured capacity to rows for width dim,
// clamped to the table's row count: a cache larger than its table can never
// fill, and its index would be sized for rows that do not exist.
func (c CacheConfig) capacityRows(dim, tableRows int) int {
	rows := c.Rows
	if c.Bytes > 0 {
		rows = int(c.Bytes / (int64(dim) * 4))
	}
	return max(1, min(rows, tableRows))
}

// cacheSegment is an independently-locked slice of the cache's key space.
// Sharding the lock keeps concurrent workers' lookups from serializing on
// one mutex; keys hash to segments, so each key has exactly one home.
//
// Apart from slice headers (and the LFU doorkeeper map) a segment holds no
// pointers, so the collector has nothing per row to scan. Resident rows
// live in slots 1..len(keys)-1 of four
// parallel arrays: keys (the row number), prev/next (the recency ring,
// with slot 0 as the sentinel: next[0] is the MRU slot, prev[0] the LRU),
// and the slab, where slot s owns slab[s*dim:(s+1)*dim]. The arrays grow
// as rows are admitted, up to the segment's capacity; after that an
// admission reuses the LRU victim's slot in place. index is an
// open-addressed hash table of slot numbers (0 = empty) with linear
// probing and backward-shift deletion, sized up front to at least twice
// the capacity so probe chains stay short.
type cacheSegment struct {
	mu    sync.Mutex
	dim   int
	cap   int
	keys  []int
	prev  []int32
	next  []int32
	slab  []float32
	index []int32
	mask  uint64

	// doorkeeper for frequency-based admission: first-touch counts of
	// non-resident keys, reset wholesale when it outgrows its bound.
	freq    map[int]uint8
	freqCap int

	hits, misses, evictions, admitted uint64
}

func (s *cacheSegment) init(capRows, dim int, lfu bool) {
	s.dim, s.cap = dim, capRows
	s.keys, s.prev, s.next = []int{0}, []int32{0}, []int32{0}
	s.slab = make([]float32, dim) // the sentinel's row, never read
	n := 2
	for n < 2*capRows {
		n *= 2
	}
	s.index = make([]int32, n)
	s.mask = uint64(n - 1)
	if lfu {
		s.freqCap = 8 * capRows
		s.freq = make(map[int]uint8)
	}
}

// resident is the number of rows in the segment.
func (s *cacheSegment) resident() int { return len(s.keys) - 1 }

// home is key's preferred index position. The low bits of h pick the
// segment, so the index uses higher ones.
func (s *cacheSegment) home(h uint64) uint64 { return (h >> 4) & s.mask }

// find returns the index position holding key, or the empty position that
// ends its probe chain, and the slot there (0 when key is not resident).
func (s *cacheSegment) find(key int, h uint64) (uint64, int32) {
	for p := s.home(h); ; p = (p + 1) & s.mask {
		if slot := s.index[p]; slot == 0 || s.keys[slot] == key {
			return p, slot
		}
	}
}

// unindex removes the entry at position p by backward shift: later entries
// of the probe run move up into the hole unless that would put them before
// their home position, so lookups never need tombstones.
func (s *cacheSegment) unindex(p uint64) {
	for j := (p + 1) & s.mask; ; j = (j + 1) & s.mask {
		slot := s.index[j]
		if slot == 0 {
			break
		}
		home := s.home(splitmix64(uint64(s.keys[slot])))
		if (j-home)&s.mask >= (j-p)&s.mask {
			s.index[p] = slot
			p = j
		}
	}
	s.index[p] = 0
}

func (s *cacheSegment) row(slot int32) []float32 {
	return s.slab[int(slot)*s.dim : (int(slot)+1)*s.dim]
}

func (s *cacheSegment) unlink(slot int32) {
	p, n := s.prev[slot], s.next[slot]
	s.next[p], s.prev[n] = n, p
}

func (s *cacheSegment) pushFront(slot int32) {
	n := s.next[0]
	s.prev[slot], s.next[slot] = 0, n
	s.prev[n], s.next[0] = slot, slot
}

// newSlot appends a fresh slot, growing the arrays geometrically but never
// past the segment's capacity (plus the sentinel).
func (s *cacheSegment) newSlot() int32 {
	n := len(s.keys)
	if n == cap(s.keys) {
		c := min(max(2*n, 16), s.cap+1)
		s.keys, s.prev, s.next = regrow(s.keys, c), regrow(s.prev, c), regrow(s.next, c)
		s.slab = regrow(s.slab, c*s.dim)
	}
	s.keys, s.prev, s.next = s.keys[:n+1], s.prev[:n+1], s.next[:n+1]
	s.slab = s.slab[:(n+1)*s.dim]
	return int32(n)
}

// regrow copies s into a new slice of capacity c.
func regrow[T any](s []T, c int) []T {
	t := make([]T, len(s), c)
	copy(t, s)
	return t
}

// Cached layers a hot-row cache over any backend. Resident rows are the
// cache's own copies (heap memory — genuinely resident regardless of what
// the OS does with the backend's pages). Reads copy rows out under the
// segment lock, which is what lets an evicted row's slot be reused in place
// rather than left to the collector.
type Cached struct {
	base    Store
	policy  CachePolicy
	capRows int
	segs    []cacheSegment
	segMask uint64
}

// NewCached wraps base with a hot-row cache. The capacity is clamped to the
// backend's row count.
func NewCached(base Store, cfg CacheConfig) (*Cached, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == CacheNone {
		return nil, fmt.Errorf("embstore: NewCached with CacheNone policy")
	}
	capRows := cfg.capacityRows(base.Dim(), base.Rows())
	nseg := 1
	for nseg < 16 && nseg*8 <= capRows {
		nseg *= 2
	}
	perSeg := (capRows + nseg - 1) / nseg
	if perSeg > math.MaxInt32-1 {
		return nil, fmt.Errorf("embstore: cache of %d rows needs more than %d slots per segment", capRows, math.MaxInt32-1)
	}
	c := &Cached{base: base, policy: cfg.Policy, capRows: capRows, segs: make([]cacheSegment, nseg), segMask: uint64(nseg - 1)}
	for i := range c.segs {
		c.segs[i].init(perSeg, base.Dim(), cfg.Policy == CacheLFUAdmit)
	}
	return c, nil
}

// Base returns the wrapped backend.
func (c *Cached) Base() Store { return c.base }

// Policy returns the cache's admission/eviction policy.
func (c *Cached) Policy() CachePolicy { return c.policy }

// CapacityRows returns the resolved row capacity.
func (c *Cached) CapacityRows() int { return c.capRows }

// Rows returns the backend's row count.
func (c *Cached) Rows() int { return c.base.Rows() }

// Dim returns the embedding width.
func (c *Cached) Dim() int { return c.base.Dim() }

// Row returns a fresh copy of row i (callers own it); see RowInto.
func (c *Cached) Row(i int) []float32 {
	row := make([]float32, c.Dim())
	c.RowInto(row, i)
	return row
}

// RowInto copies row i into dst, serving from the cache when resident.
func (c *Cached) RowInto(dst []float32, i int) {
	h := splitmix64(uint64(i))
	seg := &c.segs[h&c.segMask]
	seg.mu.Lock()
	if _, slot := seg.find(i, h); slot != 0 {
		seg.hits++
		seg.unlink(slot)
		seg.pushFront(slot)
		copy(dst, seg.row(slot))
		seg.mu.Unlock()
		return
	}
	seg.misses++
	admit := true
	if c.policy == CacheLFUAdmit {
		if f := seg.freq[i] + 1; f < 2 {
			if len(seg.freq) >= seg.freqCap {
				clear(seg.freq) // wholesale age-out keeps the doorkeeper bounded
			}
			seg.freq[i] = f
			admit = false
		} else {
			delete(seg.freq, i)
		}
	}
	seg.mu.Unlock()

	// Read the backend outside the lock: concurrent misses on the same row
	// both read through (idempotent) and at most one copy ends up resident.
	c.base.RowInto(dst, i)
	if !admit {
		return
	}

	seg.mu.Lock()
	defer seg.mu.Unlock()
	if _, slot := seg.find(i, h); slot != 0 { // lost the admit race; the row is already in
		seg.unlink(slot)
		seg.pushFront(slot)
		return
	}
	seg.admitted++
	var slot int32
	if seg.resident() >= seg.cap { // reuse the LRU victim's slot
		slot = seg.prev[0]
		seg.unlink(slot)
		p, _ := seg.find(seg.keys[slot], splitmix64(uint64(seg.keys[slot])))
		seg.unindex(p)
		seg.evictions++
	} else {
		slot = seg.newSlot()
	}
	seg.keys[slot] = i
	copy(seg.row(slot), dst)
	seg.pushFront(slot)
	p, _ := seg.find(i, h)
	seg.index[p] = slot
}

// Stats folds the per-segment counters with the backend's read traffic:
// BytesRead is what actually reached backing storage (miss traffic).
func (c *Cached) Stats() Stats {
	st := Stats{CapacityRows: c.capRows, BytesRead: c.base.Stats().BytesRead}
	for i := range c.segs {
		seg := &c.segs[i]
		seg.mu.Lock()
		st.Hits += seg.hits
		st.Misses += seg.misses
		st.Evictions += seg.evictions
		st.Admitted += seg.admitted
		st.ResidentRows += seg.resident()
		seg.mu.Unlock()
	}
	return st
}

// Close closes the backend.
func (c *Cached) Close() error { return c.base.Close() }
