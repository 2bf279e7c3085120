// Package embstore is the at-scale embedding tier: pluggable row storage
// behind nn.EmbeddingTable so the zoo's sparse tables can grow from the
// scaled-down 10^4 rows to the production scale the paper characterizes
// (up to ~10^8 rows) without materializing gigabytes of dense weights in
// every process.
//
// The package provides three backends plus one wrapper:
//
//   - Dense: rows materialized in memory (the at-scale analogue of the
//     default in-package tensor, built from per-row seeds rather than one
//     sequential stream so it can be sharded and scaled).
//   - Mapped: rows mmap'd read-only from a table file written by Generate /
//     `deeprecsys tables gen`; the OS page cache decides what is resident,
//     so a 10^8-row table costs address space, not RSS.
//   - Synth: rows recomputed on demand from their per-row seed; zero bytes
//     of backing storage. The recompute on every read stands in for the
//     DRAM-resident miss path at scales where even a file is inconvenient
//     (the 10^7-row CI smoke), and makes cache behavior measurable without
//     provisioning storage.
//   - Cached: a hot-row cache (LRU or frequency-admission) layered over any
//     backend, capacity in rows or bytes, with hit/miss/eviction/bytes-read
//     counters.
//
// Determinism contract: table content is a pure function of (seed, table,
// row, dim). Dense, Mapped, and Synth produce bit-identical rows for the
// same coordinates, which is what makes the tolerance-free cross-backend
// equality tests possible and lets shards be generated independently on any
// machine. A second, stream-seeded construction path (NewDenseStream /
// WriteFileStream) reproduces the classic zoo RNG stream draw-for-draw for
// bit-exact parity with the in-memory default at small scale.
//
// Read contract: stores are safe for concurrent readers, and the serving
// path reads through RowInto, which copies the row into a buffer the caller
// owns. Copy-out is what lets Cached keep its resident rows in one flat slab
// per segment and reuse an evicted row's slot in place: no reader ever holds
// a reference into the cache, so no row needs a heap object of its own to
// outlive its eviction; a hit allocates nothing, and a miss only what the
// backend's read does (Synth's per-row generator state). Row
// remains for callers that want a slice: Dense and Mapped return read-only
// views of their backing storage, Synth and Cached return fresh copies.
package embstore

import "fmt"

// EmbStddev is the standard deviation of the small-normal embedding
// initialization, matching nn.NewEmbeddingTable's tensor.RandNormal call.
const EmbStddev = 0.05

// Store is one embedding table's row storage. Implementations must support
// concurrent Row and RowInto calls; both require 0 <= i < Rows() (callers —
// the nn lookup paths — bounds-check first and report a typed error).
type Store interface {
	// Rows is the number of rows this store serves. For a shard it is the
	// shard's row count, not the full table's.
	Rows() int
	// Dim is the embedding vector width.
	Dim() int
	// Row returns row i as a dim-wide float32 slice. The slice is read-only
	// for the caller and valid at least until the next Row call from the
	// same goroutine. It may allocate (Synth and Cached return copies).
	Row(i int) []float32
	// RowInto copies row i into dst[:Dim()] without allocating. This is the
	// lookup path: the caller owns dst before and after, so a cache never
	// lends out its own memory and can recycle an evicted row's storage at
	// once. A cache serves hits by copying under its lock and fills misses
	// from the backend into dst before copying dst into the cache.
	RowInto(dst []float32, i int)
	// Stats returns a snapshot of this store's counters.
	Stats() Stats
	// Close releases backing resources (file mappings). The store must not
	// be used after Close.
	Close() error
}

// Stats is a snapshot of a store's access counters. Counters accumulate
// over the store's lifetime; Add folds snapshots across tables or replicas.
type Stats struct {
	// Hits and Misses count cache outcomes; both stay zero for uncached
	// stores (every read of an uncached store goes to backing storage).
	Hits   uint64
	Misses uint64
	// Evictions counts cached rows displaced to make room.
	Evictions uint64
	// Admitted counts rows copied into the cache (for frequency-based
	// admission this is less than Misses: one-touch rows are served
	// through without displacing hot rows).
	Admitted uint64
	// BytesRead counts bytes fetched from backing storage — the memory/
	// storage traffic a hot-row cache exists to absorb. For a cached store
	// this is miss traffic only.
	BytesRead uint64
	// CapacityRows and ResidentRows describe the cache (zero when uncached);
	// ResidentRows is a point-in-time gauge, not a counter.
	CapacityRows int
	ResidentRows int
}

// HitRate returns Hits/(Hits+Misses), or 0 with no observations.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Add returns the counter-wise sum of two snapshots (gauges sum too: the
// aggregate of per-table caches has the combined capacity and residency).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Hits:         s.Hits + o.Hits,
		Misses:       s.Misses + o.Misses,
		Evictions:    s.Evictions + o.Evictions,
		Admitted:     s.Admitted + o.Admitted,
		BytesRead:    s.BytesRead + o.BytesRead,
		CapacityRows: s.CapacityRows + o.CapacityRows,
		ResidentRows: s.ResidentRows + o.ResidentRows,
	}
}

// Shard names one contiguous slice of a table's rows for storage-level
// sharding across fleet replicas: replica Index of Count maps only its
// range. The zero value means unsharded (the full table).
type Shard struct {
	Index, Count int
}

// Validate checks the shard coordinates.
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("embstore: invalid shard %d of %d", s.Index, s.Count)
	}
	return nil
}

// Range returns the half-open global row range [lo, lo+n) this shard holds
// of a rows-row table. Ranges of the Count shards are disjoint and cover
// [0, rows) exactly.
func (s Shard) Range(rows int) (lo, n int) {
	if s.Count <= 1 {
		return 0, rows
	}
	lo = rows * s.Index / s.Count
	hi := rows * (s.Index + 1) / s.Count
	return lo, hi - lo
}

// String renders the shard for file names and reports.
func (s Shard) String() string {
	if s.Count <= 1 {
		return "full"
	}
	return fmt.Sprintf("%dof%d", s.Index, s.Count)
}
