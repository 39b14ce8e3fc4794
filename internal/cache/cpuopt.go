package cache

import "container/list"

// CPUOptimized is the CPU-optimized row cache of §4.3: a hash map with an
// intrusive LRU list. Operations are O(1) but each item pays map-bucket and
// list-node overhead (~112 B accounted per item), so fewer rows fit in the
// same FM budget than the memory-optimized design — exactly the trade-off
// of Fig. 6.
type CPUOptimized struct {
	budget int64
	items  map[Key]*list.Element
	lru    *list.List
	stats  Stats
}

type cpuEntry struct {
	key   Key
	val   []byte
	dirty bool
}

// cpuMetaPerItem accounts map bucket + list element + entry header + slice
// header overhead per cached row.
const cpuMetaPerItem = 112

// cpuOptCPUCost is the baseline relative lookup cost (1.0 by definition).
const cpuOptCPUCost = 1.0

// NewCPUOptimized builds a CPU-optimized cache with the given byte budget
// (values + accounted metadata).
func NewCPUOptimized(budget int64) *CPUOptimized {
	if budget < cpuMetaPerItem {
		budget = cpuMetaPerItem
	}
	return &CPUOptimized{
		budget: budget,
		items:  make(map[Key]*list.Element),
		lru:    list.New(),
		stats:  Stats{TotalBytes: budget},
	}
}

// Get copies the value for k into dst.
func (c *CPUOptimized) Get(k Key, dst []byte) (int, bool) {
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return 0, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cpuEntry)
	copy(dst[:len(e.val)], e.val)
	c.stats.Hits++
	return len(e.val), true
}

// Put inserts or replaces k's value.
func (c *CPUOptimized) Put(k Key, v []byte) { c.put(k, v, false) }

// PutDirty inserts k's value and marks it dirty.
func (c *CPUOptimized) PutDirty(k Key, v []byte) { c.put(k, v, true) }

func (c *CPUOptimized) put(k Key, v []byte, dirty bool) {
	c.stats.Puts++
	if el, ok := c.items[k]; ok {
		e := el.Value.(*cpuEntry)
		c.stats.UsedBytes += int64(len(v) - len(e.val))
		e.val = append(e.val[:0], v...)
		e.dirty = e.dirty || dirty
		c.lru.MoveToFront(el)
		c.evictToFit()
		return
	}
	e := &cpuEntry{key: k, val: append([]byte{}, v...), dirty: dirty} // non-nil even when empty: Peek reports residency
	c.items[k] = c.lru.PushFront(e)
	c.stats.UsedBytes += int64(len(v))
	c.stats.MetaBytes += cpuMetaPerItem
	c.stats.Items++
	c.evictToFit()
}

func (c *CPUOptimized) evictToFit() {
	for c.stats.UsedBytes+c.stats.MetaBytes > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cpuEntry)
		c.lru.Remove(el)
		delete(c.items, e.key)
		c.stats.UsedBytes -= int64(len(e.val))
		c.stats.MetaBytes -= cpuMetaPerItem
		c.stats.Items--
		c.stats.Evictions++
	}
}

// FlushDirty invokes fn for each dirty entry and clears the flags.
func (c *CPUOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cpuEntry)
		if e.dirty {
			fn(e.key, e.val)
			e.dirty = false
		}
	}
}

// Peek returns k's value without touching recency or stats.
func (c *CPUOptimized) Peek(k Key) []byte {
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	v := el.Value.(*cpuEntry).val
	return v[:len(v):len(v)]
}

// Contains reports residency without touching recency or stats.
func (c *CPUOptimized) Contains(k Key) bool { return c.Peek(k) != nil }

// Stats returns a snapshot of counters.
func (c *CPUOptimized) Stats() Stats { return c.stats }

// CPUCostPerGet returns the relative lookup cost.
func (c *CPUOptimized) CPUCostPerGet() float64 { return cpuOptCPUCost }
