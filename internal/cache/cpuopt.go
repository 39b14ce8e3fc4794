package cache

import (
	"bytes"
	"container/list"
)

// CPUOptimized is the CPU-optimized row cache of §4.3: a hash map with an
// intrusive LRU list. Operations are O(1) but each item pays map-bucket and
// list-node overhead (~112 B accounted per item), so fewer rows fit in the
// same FM budget than the memory-optimized design — exactly the trade-off
// of Fig. 6. A view entry's val is the row of src it was handed; an owned
// one's is the cache's own copy.
type CPUOptimized struct {
	budget int64
	src    []byte
	items  map[Key]*list.Element
	lru    *list.List
	stats  Stats
}

type cpuEntry struct {
	key   Key
	val   []byte
	dirty bool
	view  bool // val is the loaded table's row: never written
}

// cpuMetaPerItem accounts map bucket + list element + entry header + slice
// header overhead per cached row.
const cpuMetaPerItem = 112

// cpuOptCPUCost is the baseline relative lookup cost (1.0 by definition).
const cpuOptCPUCost = 1.0

// NewCPUOptimized builds a CPU-optimized cache with the given byte budget
// (values + accounted metadata) and no loaded table.
func NewCPUOptimized(budget int64) *CPUOptimized { return newCPUOptimized(budget, nil) }

func newCPUOptimized(budget int64, src []byte) *CPUOptimized {
	if budget < cpuMetaPerItem {
		budget = cpuMetaPerItem
	}
	return &CPUOptimized{
		budget: budget,
		src:    src,
		items:  make(map[Key]*list.Element),
		lru:    list.New(),
		stats:  Stats{TotalBytes: budget},
	}
}

// Get returns k's value: a view in place, an owned value copied into dst.
func (c *CPUOptimized) Get(k Key, dst []byte) ([]byte, bool) {
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	e := el.Value.(*cpuEntry)
	if e.view {
		return e.val, true
	}
	return dst[:copy(dst[:len(e.val)], e.val)], true
}

// Put inserts or replaces k's value.
func (c *CPUOptimized) Put(k Key, v []byte) { c.put(k, v, false) }

// PutDirty inserts a copy of k's value and marks it dirty.
func (c *CPUOptimized) PutDirty(k Key, v []byte) { c.put(k, v, true) }

func (c *CPUOptimized) put(k Key, v []byte, dirty bool) {
	c.stats.Puts++
	var e *cpuEntry
	if el, ok := c.items[k]; ok {
		e = el.Value.(*cpuEntry)
		c.stats.UsedBytes -= int64(len(e.val))
		c.lru.MoveToFront(el)
	} else {
		e = &cpuEntry{key: k, val: []byte{}} // non-nil even when empty: Peek reports residency
		c.items[k] = c.lru.PushFront(e)
		c.stats.MetaBytes += cpuMetaPerItem
		c.stats.Items++
	}
	e.dirty = e.dirty || dirty
	view := !e.dirty && isLoadedRow(c.src, k.Row, v)
	switch {
	case view:
		e.val = v[:len(v):len(v)]
	case e.view:
		e.val = append(e.val[:0:0], v...) // a fresh copy: a view is the loaded table's
	default:
		e.val = append(e.val[:0], v...)
	}
	e.view = view
	c.stats.UsedBytes += int64(len(v))
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

// FlushDirty invokes fn for each dirty entry and clears the flags. An entry
// equal to its loaded row then becomes a view of it.
func (c *CPUOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cpuEntry)
		if e.dirty {
			fn(e.key, e.val)
			e.dirty = false
			if r := loadedRow(c.src, e.key.Row, len(e.val)); r != nil && bytes.Equal(e.val, r) {
				e.val, e.view = r, true
			}
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
