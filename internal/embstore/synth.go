package embstore

import "sync/atomic"

// Synth recomputes every requested row on demand from its per-row seed:
// zero bytes of backing storage for any table size. The per-read recompute
// (a PCG stream and dim normal draws, ~1-2µs for dim 32) stands in for the
// DRAM-miss cost of a table too large to cache — which makes Synth the
// honest miss path under a hot-row cache at scales where even a file is
// inconvenient, like the 10^7-row CI smoke. Rows are bitwise identical to
// Dense and Generate output at the same coordinates.
type Synth struct {
	seed      int64
	table     int
	dim       int
	lo        int
	count     int
	bytesRead atomic.Uint64
}

// NewSynth creates the on-demand store for shard's range of the
// per-row-seeded table (seed, table).
func NewSynth(seed int64, table, rows, dim int, shard Shard) (*Synth, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	lo, count := shard.Range(rows)
	return &Synth{seed: seed, table: table, dim: dim, lo: lo, count: count}, nil
}

// Lo returns the first global row this store serves.
func (s *Synth) Lo() int { return s.lo }

// Rows returns the number of rows this store serves.
func (s *Synth) Rows() int { return s.count }

// Dim returns the embedding width.
func (s *Synth) Dim() int { return s.dim }

// Row computes local row i into a fresh slice (callers own it).
func (s *Synth) Row(i int) []float32 {
	row := make([]float32, s.dim)
	s.RowInto(row, i)
	return row
}

// RowInto computes local row i into dst.
func (s *Synth) RowInto(dst []float32, i int) {
	s.bytesRead.Add(uint64(s.dim) * 4)
	FillRow(dst[:s.dim], s.seed, s.table, s.lo+i)
}

// Stats reports bytes synthesized.
func (s *Synth) Stats() Stats { return Stats{BytesRead: s.bytesRead.Load()} }

// Close releases nothing.
func (s *Synth) Close() error { return nil }
