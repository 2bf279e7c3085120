package embstore

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// BackendKind names one of the three row-storage backends.
type BackendKind int

// Supported backends.
const (
	BackendDense BackendKind = iota // rows materialized in memory
	BackendSynth                    // rows recomputed on demand, zero storage
	BackendMmap                     // rows mmap'd from generated table files
)

// String implements fmt.Stringer.
func (k BackendKind) String() string {
	switch k {
	case BackendDense:
		return "dense"
	case BackendSynth:
		return "synth"
	case BackendMmap:
		return "mmap"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Spec is a parsed embedding-store specification: which backend serves the
// rows and what cache, if any, sits in front of it.
type Spec struct {
	Kind  BackendKind
	Dir   string // table-file directory (mmap only)
	Cache CacheConfig
}

// ParseSpec parses the store grammar shared by the public API and the
// `serve -store` flag:
//
//	dense                      rows materialized in memory (per-row seeded)
//	synth                      rows recomputed on demand (zero storage)
//	mmap:<dir>                 rows mmap'd from `deeprecsys tables gen` files
//
// optionally followed by a hot-row cache layer:
//
//	,cache=lru:<cap>           admit every miss, evict least-recently-used
//	,cache=lfu:<cap>           admit on second touch (frequency doorkeeper)
//
// where <cap> is a row count (plain integer) or a byte budget with a
// KB/MB/GB suffix, e.g. "mmap:/data/tables,cache=lru:64MB" or
// "synth,cache=lfu:200000".
func ParseSpec(spec string) (Spec, error) {
	var sp Spec
	backend, rest, hasCache := strings.Cut(spec, ",")
	switch {
	case backend == "dense":
		sp.Kind = BackendDense
	case backend == "synth":
		sp.Kind = BackendSynth
	case strings.HasPrefix(backend, "mmap:"):
		sp.Kind = BackendMmap
		sp.Dir = strings.TrimPrefix(backend, "mmap:")
		if sp.Dir == "" {
			return sp, fmt.Errorf("embstore: mmap store needs a directory, e.g. %q", "mmap:/data/tables")
		}
	default:
		return sp, fmt.Errorf("embstore: unknown store %q (want dense, synth, or mmap:<dir>)", backend)
	}
	if !hasCache {
		return sp, nil
	}
	val, ok := strings.CutPrefix(rest, "cache=")
	if !ok {
		return sp, fmt.Errorf("embstore: unknown store option %q (want cache=lru:<cap> or cache=lfu:<cap>)", rest)
	}
	policy, capSpec, ok := strings.Cut(val, ":")
	if !ok {
		return sp, fmt.Errorf("embstore: cache needs a capacity, e.g. %q or %q", "cache=lru:100000", "cache=lfu:64MB")
	}
	switch policy {
	case "lru":
		sp.Cache.Policy = CacheLRU
	case "lfu":
		sp.Cache.Policy = CacheLFUAdmit
	default:
		return sp, fmt.Errorf("embstore: unknown cache policy %q (want lru or lfu)", policy)
	}
	rows, bytes, err := parseCapacity(capSpec)
	if err != nil {
		return sp, err
	}
	sp.Cache.Rows, sp.Cache.Bytes = rows, bytes
	return sp, sp.Cache.Validate()
}

// parseCapacity reads a row count ("200000") or byte budget ("64MB").
func parseCapacity(s string) (rows int, bytes int64, err error) {
	mult := int64(0)
	num := s
	for _, suf := range []struct {
		name string
		mult int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"B", 1}} {
		if n, ok := strings.CutSuffix(s, suf.name); ok {
			mult, num = suf.mult, n
			break
		}
	}
	v, perr := strconv.ParseInt(num, 10, 64)
	if perr != nil || v <= 0 {
		return 0, 0, fmt.Errorf("embstore: bad cache capacity %q (want a positive row count or B/KB/MB/GB bytes)", s)
	}
	if mult == 0 {
		return int(v), 0, nil
	}
	if v > math.MaxInt64/mult {
		return 0, 0, fmt.Errorf("embstore: cache capacity %q overflows a 64-bit byte count", s)
	}
	return 0, v * mult, nil
}

// String renders the spec back in grammar form.
func (sp Spec) String() string {
	var b strings.Builder
	b.WriteString(sp.Kind.String())
	if sp.Kind == BackendMmap {
		b.WriteString(":" + sp.Dir)
	}
	if sp.Cache.Policy != CacheNone {
		fmt.Fprintf(&b, ",cache=%s:", sp.Cache.Policy)
		if sp.Cache.Rows > 0 {
			fmt.Fprintf(&b, "%d", sp.Cache.Rows)
		} else {
			fmt.Fprintf(&b, "%dB", sp.Cache.Bytes)
		}
	}
	return b.String()
}

// Open builds the store for shard's slice of table `table` at the given
// geometry under base seed `seed`, layering the configured cache on top.
// For mmap it resolves the canonical FilePath under Dir and validates the
// file's header against every requested coordinate, so a stale file from a
// different seed or geometry fails loudly instead of serving wrong rows.
func (sp Spec) Open(seed int64, table, rows, dim int, shard Shard) (Store, error) {
	var (
		st  Store
		err error
	)
	switch sp.Kind {
	case BackendDense:
		st, err = NewDense(seed, table, rows, dim, shard)
	case BackendSynth:
		st, err = NewSynth(seed, table, rows, dim, shard)
	case BackendMmap:
		path := FilePath(sp.Dir, seed, table, rows, dim, shard)
		var m *Mapped
		m, err = OpenMapped(path)
		if err != nil {
			err = fmt.Errorf("%w (generate with: deeprecsys tables gen)", err)
			break
		}
		lo, count := shard.Range(rows)
		h := m.Header()
		if h.Seed != seed || h.Table != table || h.Rows != rows || h.Dim != dim || h.Lo != lo || h.Count != count {
			m.Close()
			err = fmt.Errorf("embstore: %s holds table %d seed %d rows %d dim %d [%d+%d), want table %d seed %d rows %d dim %d [%d+%d) — regenerate with deeprecsys tables gen",
				path, h.Table, h.Seed, h.Rows, h.Dim, h.Lo, h.Count, table, seed, rows, dim, lo, count)
			break
		}
		st = m
	default:
		err = fmt.Errorf("embstore: unknown backend kind %d", int(sp.Kind))
	}
	if err != nil {
		return nil, err
	}
	if sp.Cache.Policy == CacheNone {
		return st, nil
	}
	c, err := NewCached(st, sp.Cache)
	if err != nil {
		st.Close()
		return nil, err
	}
	return c, nil
}
