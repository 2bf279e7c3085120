package embstore

import (
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"
)

// Mapped serves rows from an mmap'd table file. The mapping is read-only
// and shared: row reads fault pages in on demand and the OS page cache —
// shared across replicas mapping the same file — decides residency, so a
// 10^8-row table costs address space rather than RSS. Local row index i
// addresses global row Lo()+i; a shard file therefore presents Rows() equal
// to its shard's count, which is exactly what a replica that owns only that
// shard should see.
type Mapped struct {
	h         Header
	f         *os.File
	raw       []byte    // whole-file mapping (nil when the fallback read path loaded data)
	data      []float32 // count*dim floats, the data region of the mapping
	bytesRead atomic.Uint64
	closed    atomic.Bool
}

// OpenMapped maps the table file at path. Geometry and provenance come from
// the file header; callers that require particular coordinates validate the
// returned Header().
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	hb := make([]byte, headerSize)
	if _, err := f.ReadAt(hb, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("embstore: reading header of %s: %w", path, err)
	}
	h, err := decodeHeader(hb)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("embstore: %s: %w", path, err)
	}
	if want := headerSize + h.dataSize(); st.Size() < want {
		f.Close()
		return nil, fmt.Errorf("embstore: %s truncated: %d bytes, header promises %d", path, st.Size(), want)
	}
	m := &Mapped{h: h, f: f}
	size := int(headerSize + h.dataSize())
	raw, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("embstore: mmap %s: %w", path, err)
	}
	m.raw = raw
	// The data region starts 64 bytes into a page-aligned mapping, so the
	// float32 view below is 4-byte aligned by construction.
	m.data = unsafe.Slice((*float32)(unsafe.Pointer(&raw[headerSize])), h.Count*h.Dim)
	return m, nil
}

// Header returns the mapped file's header.
func (m *Mapped) Header() Header { return m.h }

// Lo returns the first global row this mapping holds.
func (m *Mapped) Lo() int { return m.h.Lo }

// Rows returns the number of rows in this mapping (the shard's count).
func (m *Mapped) Rows() int { return m.h.Count }

// Dim returns the embedding width.
func (m *Mapped) Dim() int { return m.h.Dim }

// Row returns local row i as a read-only view into the mapping.
func (m *Mapped) Row(i int) []float32 {
	m.bytesRead.Add(uint64(m.h.Dim) * 4)
	return m.data[i*m.h.Dim : (i+1)*m.h.Dim]
}

// RowInto copies local row i out of the mapping into dst.
func (m *Mapped) RowInto(dst []float32, i int) {
	m.bytesRead.Add(uint64(m.h.Dim) * 4)
	copy(dst[:m.h.Dim], m.data[i*m.h.Dim:(i+1)*m.h.Dim])
}

// Stats reports bytes read through this mapping.
func (m *Mapped) Stats() Stats { return Stats{BytesRead: m.bytesRead.Load()} }

// Close unmaps the file. Row slices handed out before Close become invalid.
func (m *Mapped) Close() error {
	if !m.closed.CompareAndSwap(false, true) {
		return nil
	}
	var err error
	if m.raw != nil {
		err = munmap(m.raw)
		m.raw, m.data = nil, nil
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
