package embstore

import (
	"container/list"
	"math"
	"math/rand"
	"testing"
)

// refCache is a reference model of Cached written the obvious way: per
// segment a map from row to list element and a container/list recency list
// (front is most recent), plus the LFU doorkeeper map. It shares only the
// segment hash and the segment sizing rule with the real cache, so the
// differential test below pins the observable behaviour — which row is
// resident, which access evicts what, every counter — independently of how
// Cached lays out its memory.
type refCache struct {
	lfu  bool
	segs []refSegment
	mask uint64
}

type refSegment struct {
	cap, freqCap int
	m            map[int]*list.Element
	lru          *list.List
	freq         map[int]uint8
}

func newRefCache(capRows int, lfu bool) *refCache {
	nseg := 1
	for nseg < 16 && nseg*8 <= capRows {
		nseg *= 2
	}
	perSeg := (capRows + nseg - 1) / nseg
	r := &refCache{lfu: lfu, segs: make([]refSegment, nseg), mask: uint64(nseg - 1)}
	for i := range r.segs {
		r.segs[i] = refSegment{cap: perSeg, freqCap: 8 * perSeg, m: map[int]*list.Element{}, lru: list.New(), freq: map[int]uint8{}}
	}
	return r
}

// access applies one read of row i, updating st exactly as Cached should.
func (r *refCache) access(i int, st *Stats) {
	s := &r.segs[splitmix64(uint64(i))&r.mask]
	if e, ok := s.m[i]; ok {
		st.Hits++
		s.lru.MoveToFront(e)
		return
	}
	st.Misses++
	if r.lfu {
		if f := s.freq[i] + 1; f < 2 {
			if len(s.freq) >= s.freqCap {
				clear(s.freq)
			}
			s.freq[i] = f
			return
		}
		delete(s.freq, i)
	}
	st.Admitted++
	if s.lru.Len() >= s.cap {
		victim := s.lru.Back()
		delete(s.m, s.lru.Remove(victim).(int))
		st.Evictions++
		st.ResidentRows--
	}
	s.m[i] = s.lru.PushFront(i)
	st.ResidentRows++
}

// Differential test: Cached must agree with the reference model after every
// access of a single-goroutine trace — bit-identical rows and identical
// Hits/Misses/Evictions/Admitted/ResidentRows — for both policies, on
// uniform and Zipf(1.2) traffic, at capacities of one row, one segment (7),
// the 16-segment boundary (128) and many rows per segment (1000).
func TestCacheMatchesReferenceModel(t *testing.T) {
	const (
		rows  = 5000
		dim   = 8
		steps = 6000
		seed  = 17
	)
	traces := map[string]func(*rand.Rand) func() int{
		"uniform": func(rng *rand.Rand) func() int { return func() int { return rng.Intn(rows) } },
		"zipf1.2": func(rng *rand.Rand) func() int {
			z := rand.NewZipf(rng, 1.2, 1, rows-1)
			return func() int { return int(z.Uint64()) }
		},
	}
	want := make([]float32, dim)
	for _, policy := range []CachePolicy{CacheLRU, CacheLFUAdmit} {
		for _, capRows := range []int{1, 7, 128, 1000} {
			for name, mk := range traces {
				base, err := NewSynth(seed, 2, rows, dim, Shard{})
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewCached(base, CacheConfig{Policy: policy, Rows: capRows})
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefCache(capRows, policy == CacheLFUAdmit)
				refSt := Stats{CapacityRows: capRows}
				next := mk(rand.New(rand.NewSource(seed)))
				for k := 0; k < steps; k++ {
					i := next()
					got := c.Row(i)
					ref.access(i, &refSt)
					FillRow(want, seed, 2, i)
					for j := range want {
						if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
							t.Fatalf("%v cap=%d %s step %d: row %d[%d] = %x, want %x (replay: seed %d)",
								policy, capRows, name, k, i, j, math.Float32bits(got[j]), math.Float32bits(want[j]), seed)
						}
					}
					st := c.Stats()
					refSt.BytesRead = refSt.Misses * dim * 4
					if st != refSt {
						t.Fatalf("%v cap=%d %s step %d (row %d): stats %+v, reference %+v (replay: seed %d)",
							policy, capRows, name, k, i, st, refSt, seed)
					}
				}
			}
		}
	}
}
