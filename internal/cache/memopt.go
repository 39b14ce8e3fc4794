package cache

// MemOptimized is the memory-optimized row cache of §4.3: a set-associative
// design with fixed-size value slots in one slab and compact per-slot
// metadata (key + length + CLOCK bit + dirty bit ≈ 16 B/item). Lookups
// linearly search the ways of one set ("requires search in a bucket"),
// trading CPU for per-item memory overhead.
type MemOptimized struct {
	slab      []byte
	keys      []Key
	lens      []uint16
	flags     []uint8 // bit0 valid, bit1 clock-referenced, bit2 dirty
	slotBytes int
	ways      int
	sets      int
	clockHand []int // per-set clock position
	stats     Stats
}

const (
	memFlagValid = 1 << iota
	memFlagRef
	memFlagDirty
)

// memMetaPerSlot is the metadata accounting per slot (key 12 B padded to
// 16 B, plus length and flags).
const memMetaPerSlot = 19

// memOptCPUCost is the relative CPU cost of one Get vs the CPU-optimized
// cache: scanning ways costs more than one hash-map probe.
const memOptCPUCost = 1.6

// NewMemOptimized builds a memory-optimized cache with the given byte
// budget. slotBytes is the maximum row size it accepts (0 → 255).
func NewMemOptimized(budget int64, slotBytes int) *MemOptimized {
	if slotBytes <= 0 {
		slotBytes = 255
	}
	const ways = 8
	perSlot := int64(slotBytes + memMetaPerSlot)
	slots := int(budget / perSlot)
	if slots < ways {
		slots = ways
	}
	sets := slots / ways
	slots = sets * ways
	return &MemOptimized{
		slab:      make([]byte, slots*slotBytes),
		keys:      make([]Key, slots),
		lens:      make([]uint16, slots),
		flags:     make([]uint8, slots),
		slotBytes: slotBytes,
		ways:      ways,
		sets:      sets,
		clockHand: make([]int, sets),
		stats:     Stats{TotalBytes: int64(slots) * perSlot},
	}
}

func (c *MemOptimized) setOf(k Key) int { return int(k.hash() % uint64(c.sets)) }

func (c *MemOptimized) slot(set, way int) int { return set*c.ways + way }

// Get copies the value for k into dst.
func (c *MemOptimized) Get(k Key, dst []byte) (int, bool) {
	set := c.setOf(k)
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if c.flags[s]&memFlagValid != 0 && c.keys[s] == k {
			c.flags[s] |= memFlagRef
			n := int(c.lens[s])
			copy(dst[:n], c.slab[s*c.slotBytes:s*c.slotBytes+n])
			c.stats.Hits++
			return n, true
		}
	}
	c.stats.Misses++
	return 0, false
}

// Put inserts or replaces k's value. Values larger than the slot size are
// rejected (counted in Stats.Rejected) — the dual router prevents this in
// normal operation.
func (c *MemOptimized) Put(k Key, v []byte) { c.put(k, v, false) }

// PutDirty inserts k's value and marks it dirty.
func (c *MemOptimized) PutDirty(k Key, v []byte) { c.put(k, v, true) }

func (c *MemOptimized) put(k Key, v []byte, dirty bool) {
	if len(v) > c.slotBytes {
		c.stats.Rejected++
		return
	}
	c.stats.Puts++
	set := c.setOf(k)
	// Replace in place if present; otherwise use a free way; otherwise
	// evict via CLOCK.
	victim := -1
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if c.flags[s]&memFlagValid == 0 {
			if victim < 0 {
				victim = s
			}
			continue
		}
		if c.keys[s] == k {
			victim = s
			c.stats.UsedBytes -= int64(c.lens[s])
			c.stats.MetaBytes -= memMetaPerSlot
			c.stats.Items--
			break
		}
	}
	if victim < 0 {
		victim = c.evict(set)
	}
	s := victim
	c.keys[s] = k
	c.lens[s] = uint16(len(v))
	c.flags[s] = memFlagValid | memFlagRef
	if dirty {
		c.flags[s] |= memFlagDirty
	}
	copy(c.slab[s*c.slotBytes:], v)
	c.stats.UsedBytes += int64(len(v))
	c.stats.MetaBytes += memMetaPerSlot
	c.stats.Items++
}

// evict runs the CLOCK hand over the set and returns a freed slot index.
func (c *MemOptimized) evict(set int) int {
	for {
		w := c.clockHand[set]
		c.clockHand[set] = (w + 1) % c.ways
		s := c.slot(set, w)
		if c.flags[s]&memFlagRef != 0 {
			c.flags[s] &^= memFlagRef
			continue
		}
		c.stats.Evictions++
		c.stats.UsedBytes -= int64(c.lens[s])
		c.stats.MetaBytes -= memMetaPerSlot
		c.stats.Items--
		c.flags[s] = 0
		return s
	}
}

// FlushDirty invokes fn for each dirty entry and clears the dirty bits.
func (c *MemOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for s := range c.flags {
		if c.flags[s]&(memFlagValid|memFlagDirty) == memFlagValid|memFlagDirty {
			n := int(c.lens[s])
			fn(c.keys[s], c.slab[s*c.slotBytes:s*c.slotBytes+n])
			c.flags[s] &^= memFlagDirty
		}
	}
}

// Contains reports residency without touching recency or stats.
func (c *MemOptimized) Contains(k Key) bool {
	set := c.setOf(k)
	for w := 0; w < c.ways; w++ {
		s := c.slot(set, w)
		if c.flags[s]&memFlagValid != 0 && c.keys[s] == k {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of counters.
func (c *MemOptimized) Stats() Stats { return c.stats }

// CPUCostPerGet returns the relative lookup cost.
func (c *MemOptimized) CPUCostPerGet() float64 { return memOptCPUCost }
