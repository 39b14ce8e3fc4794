// Package cache implements the software-managed FM row cache of §4.3 — the
// from-scratch substitute for CacheLib. It provides the two designs the
// paper tuned between:
//
//   - a memory-optimized cache (set-associative, compact fixed slots, CLOCK
//     eviction; less overhead per key-value pair but requires a search in a
//     bucket), and
//   - a CPU-optimized cache (hash map + intrusive LRU list; higher per-item
//     metadata overhead but O(1) operations),
//
// The dual "unified row cache" the paper deploys — rows with embedding
// dim ≤ 255 B in the memory-optimized cache, larger rows in the
// CPU-optimized one — is resolved per table by the store, whose rows are
// uniform-size (core's CacheDual).
// Entries can be marked dirty to support cache-first incremental model
// updates with write-back to SM (§A.3).
//
// A cache built over the loaded table (New's src) caches by reference: a
// Put handed the table's own row — an SM read of a clean device lends it in
// place — keeps a view of it, and Get and Peek return that row itself. Any
// other value (a dirty row, an update, a row of a device a write changed)
// is copied into storage the cache owns, until FlushDirty writes it back
// equal to its loaded row and it becomes a view again. Either way the
// returned bytes are never to be written: they may be the loaded table that
// every replica shares. The modelled FM bytes and counters ignore the kind.
//
// The metadata bytes each design charges per item (Stats.MetaBytes, and the
// share of the budget it takes) are the model's accounting of the paper's
// designs, fixed constants, not the size of this package's Go structures.
package cache

import "math/bits"

// New builds a row cache with the given byte budget over src, the loaded
// table whose rows it caches (nil: none, and every value is copied): a
// memory-optimized one with slotBytes-byte slots, or with slotBytes 0 a
// CPU-optimized one. Row r of src is src[r·n : (r+1)·n] for an n-byte row.
func New(budget int64, slotBytes int, src []byte) RowCache {
	if slotBytes > 0 {
		return newMemOptimized(budget, slotBytes, src)
	}
	return newCPUOptimized(budget, src)
}

// Key identifies one embedding row.
type Key struct {
	Table int32
	Row   int64
}

func (k Key) hash() uint64 {
	h := uint64(k.Row)*0x9e3779b97f4a7c15 ^ uint64(uint32(k.Table))*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

// Stats aggregates cache counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Puts       uint64
	Evictions  uint64
	Rejected   uint64 // values too large for the cache's slots
	UsedBytes  int64  // value bytes currently resident
	TotalBytes int64  // configured capacity (values + metadata)
	MetaBytes  int64  // metadata overhead currently resident
	Items      int64
}

// HitRate returns hits/(hits+misses).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add returns the field-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Evictions += o.Evictions
	s.Rejected += o.Rejected
	s.UsedBytes += o.UsedBytes
	s.TotalBytes += o.TotalBytes
	s.MetaBytes += o.MetaBytes
	s.Items += o.Items
	return s
}

// RowCache is the interface shared by the cache variants.
type RowCache interface {
	// Get returns the cached value for k; ok is false on a miss. A view
	// returns the loaded table's row in place, never to be written; an
	// owned value is copied into dst, which must be large enough for the
	// row, and the result is dst's prefix.
	Get(k Key, dst []byte) (v []byte, ok bool)
	// Put inserts or replaces the value for k: a view when v is row k.Row
	// of the loaded table itself, else a copy.
	Put(k Key, v []byte)
	// PutDirty inserts a copy of the value and marks it dirty (pending
	// write-back).
	PutDirty(k Key, v []byte)
	// FlushDirty invokes fn for every dirty entry and clears the flags.
	FlushDirty(fn func(k Key, v []byte))
	// Peek returns the cached value for k in place, nil on a miss, without
	// updating recency or stats. The bytes are the loaded table's or the
	// cache's own: valid until the next Put or PutDirty, and never to be
	// written.
	Peek(k Key) []byte
	// Contains reports residency without updating recency or stats.
	Contains(k Key) bool
	// Stats returns a snapshot of counters.
	Stats() Stats
	// CPUCostPerGet returns the relative CPU cost model of one lookup
	// (1.0 = the CPU-optimized cache), used by the serving simulator to
	// reproduce the Fig. 6 trade-off.
	CPUCostPerGet() float64
}

// Compile-time interface checks.
var (
	_ RowCache = (*MemOptimized)(nil)
	_ RowCache = (*CPUOptimized)(nil)
)

// loadedRow returns row row of src, n bytes wide, or nil when src has no
// such row. The bound is a full-width product, so no row overflows it.
func loadedRow(src []byte, row int64, n int) []byte {
	if n <= 0 || row < 0 || row >= int64(len(src)) {
		return nil
	}
	hi, at := bits.Mul64(uint64(row), uint64(n))
	if hi != 0 || at+uint64(n) > uint64(len(src)) {
		return nil
	}
	return src[at : at+uint64(n) : at+uint64(n)]
}

// isLoadedRow reports whether v is row row of src itself, which an entry
// may view in place.
func isLoadedRow(src []byte, row int64, v []byte) bool {
	r := loadedRow(src, row, len(v))
	return r != nil && &r[0] == &v[0]
}
