package embstore

import (
	"math/rand"
	"testing"
)

// Lookup-bandwidth benchmarks for BENCH_PR7: bytes/op is one row, so the
// reported MB/s is effective row-gather bandwidth per core. "Hot" drives
// Zipf(1.2) traffic into a cache sized to hold the hot set; "cold" walks
// uniformly over rows the cache cannot hold (and, for mmap, the page cache
// largely can) — the two ends of the memory-tier spectrum the store is
// built to span.

const (
	benchRows = 1 << 20 // 10^6-row table
	benchDim  = 32
)

// benchRowReads copies rows out through RowInto into one reused buffer —
// the nn gather path — so allocs/op is the store's own allocation per read.
func benchRowReads(b *testing.B, st Store, next func() int) {
	b.SetBytes(int64(st.Dim()) * 4)
	b.ReportAllocs()
	dst := make([]float32, st.Dim())
	b.ResetTimer()
	var sink float32
	for i := 0; i < b.N; i++ {
		st.RowInto(dst, next())
		sink += dst[0]
	}
	_ = sink
}

func zipfNext(rows int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(3)), 1.2, 1, uint64(rows-1))
	return func() int { return int(z.Uint64()) }
}

func uniformNext(rows int) func() int {
	rng := rand.New(rand.NewSource(3))
	return func() int { return rng.Intn(rows) }
}

func BenchmarkRowReadCachedHotZipf(b *testing.B) {
	base, err := NewSynth(1, 0, benchRows, benchDim, Shard{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	next := zipfNext(benchRows)
	dst := make([]float32, benchDim)
	for i := 0; i < 1<<17; i++ { // warm the hot set
		st.RowInto(dst, next())
	}
	benchRowReads(b, st, next)
}

// BenchmarkRowReadCachedMissUniform is the eviction path: uniform reads over
// a table 1024x larger than the cache, so nearly every read misses, fills
// from Synth and recycles the LRU victim's slot.
func BenchmarkRowReadCachedMissUniform(b *testing.B) {
	base, err := NewSynth(1, 0, benchRows, benchDim, Shard{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := NewCached(base, CacheConfig{Policy: CacheLRU, Rows: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	benchRowReads(b, st, uniformNext(benchRows))
}

func BenchmarkRowReadMappedColdUniform(b *testing.B) {
	dir := b.TempDir()
	path, err := Generate(dir, 1, 0, benchRows, benchDim, Shard{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	st, err := OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	benchRowReads(b, st, uniformNext(benchRows))
}

func BenchmarkRowReadSynthMiss(b *testing.B) {
	st, err := NewSynth(1, 0, benchRows, benchDim, Shard{})
	if err != nil {
		b.Fatal(err)
	}
	benchRowReads(b, st, uniformNext(benchRows))
}

func BenchmarkRowReadDense(b *testing.B) {
	st, err := NewDense(1, 0, benchRows, benchDim, Shard{})
	if err != nil {
		b.Fatal(err)
	}
	benchRowReads(b, st, uniformNext(benchRows))
}
