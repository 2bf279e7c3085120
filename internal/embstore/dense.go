package embstore

import (
	"math/rand"
	"sync/atomic"
)

// Dense materializes its rows in memory. It is the at-scale analogue of the
// in-package default tensor: same Store surface as Mapped/Synth, but every
// row resident. Two constructions exist — per-row seeded (NewDense, the
// scalable family) and stream-seeded (NewDenseStream, classic zoo order for
// bit-exact parity with the in-memory default).
type Dense struct {
	dim       int
	lo        int
	data      []float32
	bytesRead atomic.Uint64
}

// NewDense materializes shard's row range of the per-row-seeded table
// (seed, table) at the given geometry. Rows are bitwise identical to what
// Generate writes and Synth computes for the same coordinates.
func NewDense(seed int64, table, rows, dim int, shard Shard) (*Dense, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	lo, count := shard.Range(rows)
	d := &Dense{dim: dim, lo: lo, data: make([]float32, count*dim)}
	for i := 0; i < count; i++ {
		FillRow(d.data[i*dim:(i+1)*dim], seed, table, lo+i)
	}
	return d, nil
}

// NewDenseStream materializes a full table drawn sequentially from rng on
// the classic zoo stream (consuming exactly rows*dim NormFloat64 draws) —
// bit-identical content to nn.NewEmbeddingTable on the same stream.
func NewDenseStream(rng *rand.Rand, rows, dim int) *Dense {
	d := &Dense{dim: dim, data: make([]float32, rows*dim)}
	FillRowsStream(d.data, rng, rows, dim)
	return d
}

// Lo returns the first global row this store holds.
func (d *Dense) Lo() int { return d.lo }

// Rows returns the number of resident rows.
func (d *Dense) Rows() int { return len(d.data) / d.dim }

// Dim returns the embedding width.
func (d *Dense) Dim() int { return d.dim }

// Row returns local row i as a read-only view.
func (d *Dense) Row(i int) []float32 {
	d.bytesRead.Add(uint64(d.dim) * 4)
	return d.data[i*d.dim : (i+1)*d.dim]
}

// RowInto copies local row i into dst.
func (d *Dense) RowInto(dst []float32, i int) {
	d.bytesRead.Add(uint64(d.dim) * 4)
	copy(dst[:d.dim], d.data[i*d.dim:(i+1)*d.dim])
}

// Stats reports bytes read from the materialized rows.
func (d *Dense) Stats() Stats { return Stats{BytesRead: d.bytesRead.Load()} }

// Close releases nothing; Dense rows are garbage-collected.
func (d *Dense) Close() error { return nil }
