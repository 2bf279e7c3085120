package embstore

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Copy-out under contention: eight goroutines read a 10^4-row table through
// an 8-row cache, so nearly every miss evicts and slots are recycled while
// other readers copy rows out of them. Every row a reader gets must still
// be bit-identical to FillRow at its coordinates.
func TestCachedRowIntoConcurrentEvictions(t *testing.T) {
	const (
		seed    = int64(5)
		rows    = 10000
		dim     = 16
		workers = 8
		reads   = 3000
	)
	base, err := NewSynth(seed, 1, rows, dim, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got, want := make([]float32, dim), make([]float32, dim)
			for k := 0; k < reads; k++ {
				// Half the reads go to a 16-row hot set so hits race evictions.
				i := rng.Intn(rows)
				if k%2 == 0 {
					i = rng.Intn(16)
				}
				c.RowInto(got, i)
				FillRow(want, seed, 1, i)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Errorf("worker %d (seed %d) read %d: element %d = %x, want %x", w, w, i, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*reads || st.ResidentRows > st.CapacityRows || st.Evictions == 0 {
		t.Fatalf("counters after concurrent reads: %+v", st)
	}
}

// A capacity beyond the table's row count is clamped to it: the cache can
// never hold more rows than the table has, and must not size its index for
// them.
func TestCacheCapacityClampedToTable(t *testing.T) {
	base, err := NewSynth(1, 0, 1000, 4, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []CacheConfig{
		{Policy: CacheLRU, Rows: 100000000},
		{Policy: CacheLFUAdmit, Bytes: 1 << 40},
	} {
		c, err := NewCached(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.CapacityRows(); got != 1000 {
			t.Errorf("%+v over 1000 rows: CapacityRows = %d, want 1000", cfg, got)
		}
		index := 0
		for i := range c.segs {
			index += len(c.segs[i].index)
		}
		if index > 4*1000 {
			t.Errorf("%+v over 1000 rows: %d index entries allocated", cfg, index)
		}
	}
}

// Zero-allocation reads: a cache hit copies out with no allocation, and so
// do the uncached Dense and Mapped backends.
func TestRowIntoDoesNotAllocate(t *testing.T) {
	base, err := NewSynth(1, 0, 100, 32, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: 100})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense(1, 0, 100, 32, Shard{})
	if err != nil {
		t.Fatal(err)
	}
	path, err := Generate(t.TempDir(), 1, 0, 100, 32, Shard{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	dst := make([]float32, 32)
	c.RowInto(dst, 3) // admit
	for name, st := range map[string]Store{"cached hit": c, "dense": dense, "mapped": mapped} {
		if n := testing.AllocsPerRun(100, func() { st.RowInto(dst, 3) }); n != 0 {
			t.Errorf("%s: RowInto allocates %v times per call", name, n)
		}
	}
}
