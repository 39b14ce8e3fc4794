// Package pooledcache implements the pooled embedding cache of §4.4
// (Algorithm 1): for an embedding operator with index sequence I, the
// already dequantized-and-pooled output vector is cached under an
// order-invariant hash of I. A hit skips the per-row lookups, the
// dequantization and the pooling entirely. Only full sequences are cached
// (the paper's c = P scheme) because subsequence matching is prohibitively
// expensive except near c = 1 or c = P (Table 3); the minimum cacheable
// sequence length is the LenThreshold tuning knob (Table 4).
package pooledcache

import "container/list"

// SeqKey is the order-invariant digest of an index sequence for one table.
type SeqKey struct {
	Table int32
	Hash  uint64
	Len   uint16
}

// HashIndices computes an order-invariant, multiset-sensitive hash of the
// sequence: each index is avalanched independently and the results are
// combined with commutative operators (sum and xor), so permutations of
// the same multiset collide (by design — pooling is order-invariant) while
// different multisets almost surely do not.
func HashIndices(indices []int64) uint64 {
	var sum, xor uint64
	for _, idx := range indices {
		h := mix(uint64(idx))
		sum += h
		xor ^= h
	}
	return mix(sum ^ (xor * 0x9e3779b97f4a7c15) ^ uint64(len(indices)))
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Key builds the cache key for a table's index sequence.
func Key(table int32, indices []int64) SeqKey {
	return SeqKey{Table: table, Hash: HashIndices(indices), Len: uint16(min(len(indices), 1<<16-1))}
}

// Stats aggregates cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Skipped   uint64 // sequences below LenThreshold, never looked up
	Evictions uint64
	UsedBytes int64
	Items     int64
	// HitLenSum accumulates the sequence lengths of hits, so the "Hit Avg
	// Len" column of Table 4 is HitLenSum/Hits.
	HitLenSum uint64
}

// Add returns the field-wise sum of s and o — used to aggregate the
// per-table shard counters of a sharded pooled cache.
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Skipped += o.Skipped
	s.Evictions += o.Evictions
	s.UsedBytes += o.UsedBytes
	s.Items += o.Items
	s.HitLenSum += o.HitLenSum
	return s
}

// HitRate returns hits/(hits+misses+skipped) — the fraction of all pooling
// operations served from the pooled cache, matching Table 4's accounting.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Skipped
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// AvgHitLen returns the average index-sequence length among hits
// (Table 4, "Hit Avg Len").
func (s Stats) AvgHitLen() float64 {
	if s.Hits == 0 {
		return 0
	}
	return float64(s.HitLenSum) / float64(s.Hits)
}

// Config tunes the pooled cache.
type Config struct {
	// CapacityBytes bounds resident pooled vectors (plus metadata).
	CapacityBytes int64
	// LenThreshold is the minimum index-sequence length worth caching
	// ("The min sequence length which could be cached is configurable").
	LenThreshold int
}

// Cache is an LRU pooled-embedding cache. Not safe for concurrent use.
type Cache struct {
	cfg   Config
	items map[SeqKey]*list.Element
	lru   *list.List
	stats Stats
}

type entry struct {
	key SeqKey
	vec []float32
}

// metaPerItem accounts map + list + header overhead per entry.
const metaPerItem = 128

// New builds a pooled-embedding cache.
func New(cfg Config) *Cache {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 1 << 20
	}
	if cfg.LenThreshold <= 0 {
		cfg.LenThreshold = 1
	}
	return &Cache{
		cfg:   cfg,
		items: make(map[SeqKey]*list.Element),
		lru:   list.New(),
	}
}

// Get returns the cached pooled vector for the table's index sequence, or
// nil on miss. Sequences shorter than LenThreshold are skipped (counted
// separately) per Algorithm 1's doPooledEmbCache guard. The returned slice
// is owned by the cache; callers must copy before mutating.
func (c *Cache) Get(table int32, indices []int64) []float32 {
	if len(indices) <= c.cfg.LenThreshold {
		c.stats.Skipped++
		return nil
	}
	k := Key(table, indices)
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	c.stats.HitLenSum += uint64(len(indices))
	return el.Value.(*entry).vec
}

// Put caches the pooled output for the table's index sequence. Sequences
// below LenThreshold are ignored.
func (c *Cache) Put(table int32, indices []int64, pooled []float32) {
	if len(indices) <= c.cfg.LenThreshold {
		return
	}
	k := Key(table, indices)
	c.stats.Puts++
	if el, ok := c.items[k]; ok {
		e := el.Value.(*entry)
		c.stats.UsedBytes += int64(4 * (len(pooled) - len(e.vec)))
		e.vec = append(e.vec[:0], pooled...)
		c.lru.MoveToFront(el)
		c.evictToFit()
		return
	}
	e := &entry{key: k, vec: append([]float32(nil), pooled...)}
	c.items[k] = c.lru.PushFront(e)
	c.stats.UsedBytes += int64(4 * len(pooled))
	c.stats.Items++
	c.evictToFit()
}

func (c *Cache) evictToFit() {
	for c.stats.UsedBytes+c.stats.Items*metaPerItem > c.cfg.CapacityBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.items, e.key)
		c.stats.UsedBytes -= int64(4 * len(e.vec))
		c.stats.Items--
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats { return c.stats }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
