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
	sets      int
	clockHand []int // per-set clock position
	stats     Stats
}

const (
	memFlagValid = 1 << iota
	memFlagRef
	memFlagDirty
)

// memWays is the associativity: the slots one key may occupy.
const memWays = 8

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
	perSlot := int64(slotBytes + memMetaPerSlot)
	slots := int(budget / perSlot)
	if slots < memWays {
		slots = memWays
	}
	sets := slots / memWays
	slots = sets * memWays
	return &MemOptimized{
		slab:      make([]byte, slots*slotBytes),
		keys:      make([]Key, slots),
		lens:      make([]uint16, slots),
		flags:     make([]uint8, slots),
		slotBytes: slotBytes,
		sets:      sets,
		clockHand: make([]int, sets),
		stats:     Stats{TotalBytes: int64(slots) * perSlot},
	}
}

// find returns the first slot of k's set and k's slot in it, -1 when k is
// not resident.
func (c *MemOptimized) find(k Key) (base, slot int) {
	base = int(k.hash()%uint64(c.sets)) * memWays
	keys, flags := c.keys[base:base+memWays], c.flags[base:base+memWays]
	for w := range keys {
		if flags[w]&memFlagValid != 0 && keys[w] == k {
			return base, base + w
		}
	}
	return base, -1
}

// value returns slot s's value bytes in the slab.
func (c *MemOptimized) value(s int) []byte {
	at := s * c.slotBytes
	return c.slab[at : at+int(c.lens[s]) : at+int(c.lens[s])]
}

// Get copies the value for k into dst.
func (c *MemOptimized) Get(k Key, dst []byte) (int, bool) {
	_, s := c.find(k)
	if s < 0 {
		c.stats.Misses++
		return 0, false
	}
	c.flags[s] |= memFlagRef
	n := copy(dst[:c.lens[s]], c.value(s))
	c.stats.Hits++
	return n, true
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
	// Replace in place if present; otherwise use the first free way;
	// otherwise evict via CLOCK.
	base, s := c.find(k)
	if s >= 0 {
		c.stats.UsedBytes -= int64(c.lens[s])
		c.stats.MetaBytes -= memMetaPerSlot
		c.stats.Items--
	} else {
		for w, f := range c.flags[base : base+memWays] {
			if f&memFlagValid == 0 {
				s = base + w
				break
			}
		}
		if s < 0 {
			s = c.evict(base)
		}
	}
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

// evict runs the CLOCK hand over the set whose first slot is base and
// returns a freed slot index.
func (c *MemOptimized) evict(base int) int {
	hand := &c.clockHand[base/memWays]
	for {
		s := base + *hand
		*hand = (*hand + 1) % memWays
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
			fn(c.keys[s], c.value(s))
			c.flags[s] &^= memFlagDirty
		}
	}
}

// Peek returns k's value in its slab slot without touching recency or stats.
func (c *MemOptimized) Peek(k Key) []byte {
	if _, s := c.find(k); s >= 0 {
		return c.value(s)
	}
	return nil
}

// Contains reports residency without touching recency or stats.
func (c *MemOptimized) Contains(k Key) bool { return c.Peek(k) != nil }

// Stats returns a snapshot of counters.
func (c *MemOptimized) Stats() Stats { return c.stats }

// CPUCostPerGet returns the relative lookup cost.
func (c *MemOptimized) CPUCostPerGet() float64 { return memOptCPUCost }
