package pooledcache

import (
	"container/list"
	"slices"
	"testing"

	"sdm/internal/xrand"
)

// refCache is the pooled-embedding cache as it was before its entries moved
// into one slice: a map of container/list elements over boxed entries. It
// is kept verbatim (bar the names) as the reference that
// TestCacheMatchesReference holds Cache to, operation by operation.
type refCache struct {
	cfg   Config
	items map[SeqKey]*list.Element
	lru   *list.List
	stats Stats
}

type refEntry struct {
	key SeqKey
	vec []float32
}

// newRef builds a pooled-embedding cache.
func newRef(cfg Config) *refCache {
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 1 << 20
	}
	if cfg.LenThreshold <= 0 {
		cfg.LenThreshold = 1
	}
	return &refCache{
		cfg:   cfg,
		items: make(map[SeqKey]*list.Element),
		lru:   list.New(),
	}
}

// Get returns the cached pooled vector for the table's index sequence, or
// nil on miss. Sequences shorter than LenThreshold are skipped (counted
// separately) per Algorithm 1's doPooledEmbCache guard. The returned slice
// is owned by the cache; callers must copy before mutating.
func (c *refCache) Get(table int32, indices []int64) []float32 {
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
	return el.Value.(*refEntry).vec
}

// Put caches the pooled output for the table's index sequence. Sequences
// below LenThreshold are ignored.
func (c *refCache) Put(table int32, indices []int64, pooled []float32) {
	if len(indices) <= c.cfg.LenThreshold {
		return
	}
	k := Key(table, indices)
	c.stats.Puts++
	if el, ok := c.items[k]; ok {
		e := el.Value.(*refEntry)
		c.stats.UsedBytes += int64(4 * (len(pooled) - len(e.vec)))
		e.vec = append(e.vec[:0], pooled...)
		c.lru.MoveToFront(el)
		c.evictToFit()
		return
	}
	e := &refEntry{key: k, vec: append([]float32(nil), pooled...)}
	c.items[k] = c.lru.PushFront(e)
	c.stats.UsedBytes += int64(4 * len(pooled))
	c.stats.Items++
	c.evictToFit()
}

func (c *refCache) evictToFit() {
	for c.stats.UsedBytes+c.stats.Items*metaPerItem > c.cfg.CapacityBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*refEntry)
		c.lru.Remove(el)
		delete(c.items, e.key)
		c.stats.UsedBytes -= int64(4 * len(e.vec))
		c.stats.Items--
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of counters.
func (c *refCache) Stats() Stats { return c.stats }

// TestCacheMatchesReference drives Cache and the reference through the same
// seeded run of Gets and Puts and compares each Get's vector and Stats after
// every operation. Sequences run from below LenThreshold to a dozen indices
// over two tables, a Get often asks for a permutation of a sequence put
// earlier, a re-Put of a resident sequence may change its vector's length,
// and one capacity holds a single entry. Vectors are never empty, as no
// table's dim is 0.
func TestCacheMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{CapacityBytes: 4 << 10, LenThreshold: 2},
		{CapacityBytes: 64 << 10, LenThreshold: 1},
		{CapacityBytes: 1, LenThreshold: 3},
	} {
		got, ref := New(cfg), newRef(cfg)
		rng := xrand.New(uint64(cfg.CapacityBytes))
		seqs := make([][]int64, 400)
		for i := range seqs {
			seqs[i] = make([]int64, 1+rng.Intn(12))
			for j := range seqs[i] {
				seqs[i][j] = rng.Int63n(1 << 20)
			}
		}
		perm := make([]int64, 0, 12)
		const ops = 120_000
		for step := range ops {
			table, seq := int32(rng.Intn(2)), seqs[rng.Intn(len(seqs))]
			if rng.Intn(3) == 0 {
				perm = append(perm[:0], seq...)
				for i := len(perm) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				seq = perm
			}
			vec := make([]float32, 1+rng.Intn(16))
			for i := range vec {
				vec[i] = float32(rng.Intn(1000))
			}
			put := true
			if op := rng.Intn(10); op < 6 { // a Get, and the Put of a miss half the time
				a, b := got.Get(table, seq), ref.Get(table, seq)
				if (a == nil) != (b == nil) || !slices.Equal(a, b) {
					t.Fatalf("cap %d step %d: Get(%d, %v) = %v, reference %v", cfg.CapacityBytes, step, table, seq, a, b)
				}
				put = a == nil && op >= 3
			}
			if put {
				got.Put(table, seq, vec)
				ref.Put(table, seq, vec)
			}
			if a, b := got.Stats(), ref.Stats(); a != b {
				t.Fatalf("cap %d step %d: Stats %+v, reference %+v", cfg.CapacityBytes, step, a, b)
			}
		}
		if a, b := got.Stats(), ref.Stats(); a != b || b.Evictions == 0 || b.Hits == 0 || b.Skipped == 0 {
			t.Fatalf("cap %d: Stats %+v, reference %+v (a path never ran?)", cfg.CapacityBytes, a, b)
		}
	}
}
