package cache

import (
	"encoding/binary"
	"math/bits"
)

// MemOptimized is the memory-optimized row cache of §4.3: a set-associative
// design with fixed-size value slots in one slab and compact per-slot
// metadata. Lookups search the ways of one set ("requires search in a
// bucket"), trading CPU for per-item memory overhead.
//
// Each set's metadata is one 32-byte header, two to a cache line: a tag,
// flag byte and length per way. A way's tag is 0x80 | 7 bits of its key's
// hash, and 0 when the way is empty, so find compares the eight tags in one
// word and reads a way's key only when its tag matches: a miss touches one
// metadata line.
type MemOptimized struct {
	slab      []byte
	sets      []memSet
	keys      []Key   // slot set*memWays + way
	clockHand []uint8 // per-set CLOCK position, read only to evict
	slotBytes int
	// miss is the key and set of the last Get that missed, kept until the
	// next put: the caller's Put of the row it then read from SM skips a
	// second probe.
	miss  memMiss
	stats Stats
}

// memSet is one set's header.
type memSet struct {
	tags  [memWays]uint8
	flags [memWays]uint8 // memFlagRef, memFlagDirty
	lens  [memWays]uint16
}

type memMiss struct {
	key Key
	set int // -1: nothing remembered
	tag uint8
}

const (
	memFlagRef = 1 << iota // CLOCK-referenced
	memFlagDirty
)

// memWays is the associativity: the slots one key may occupy.
const memWays = 8

// memMetaPerSlot is the model's metadata accounting per slot (key 12 B
// padded to 16 B, plus length and flags), the byte count Stats reports and
// the budget pays for; it is not the Go layout's size.
const memMetaPerSlot = 19

// memOptCPUCost is the relative CPU cost of one Get vs the CPU-optimized
// cache: scanning ways costs more than one hash-map probe.
const memOptCPUCost = 1.6

// Byte lanes of a set's tag word.
const (
	lanes01 = 0x0101010101010101
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
)

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
		sets:      make([]memSet, sets),
		keys:      make([]Key, slots),
		clockHand: make([]uint8, sets),
		slotBytes: slotBytes,
		miss:      memMiss{set: -1},
		stats:     Stats{TotalBytes: int64(slots) * perSlot},
	}
}

// find returns k's set, k's slot (-1 when k is not resident) and its tag.
func (c *MemOptimized) find(k Key) (set, slot int, tag uint8) {
	h := k.hash()
	set, tag = int(h%uint64(len(c.sets))), 0x80|uint8(h>>57)
	x := binary.LittleEndian.Uint64(c.sets[set].tags[:]) ^ lanes01*uint64(tag)
	// The high bit of each byte of m is set exactly where x's byte is zero,
	// a way whose tag matches.
	for m := ^((x&lanes7f + lanes7f) | x | lanes7f); m != 0; m &= m - 1 {
		if s := set*memWays + bits.TrailingZeros64(m)>>3; c.keys[s] == k {
			return set, s, tag
		}
	}
	return set, -1, tag
}

// value returns slot s's value bytes in the slab.
func (c *MemOptimized) value(s int) []byte {
	at, n := s*c.slotBytes, int(c.sets[s/memWays].lens[s%memWays])
	return c.slab[at : at+n : at+n]
}

// Get copies the value for k into dst.
func (c *MemOptimized) Get(k Key, dst []byte) (int, bool) {
	set, s, tag := c.find(k)
	if s < 0 {
		c.stats.Misses++
		c.miss = memMiss{key: k, set: set, tag: tag}
		return 0, false
	}
	c.sets[set].flags[s%memWays] |= memFlagRef
	v := c.value(s)
	n := copy(dst[:len(v)], v)
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
	miss := c.miss
	c.miss.set = -1
	if len(v) > c.slotBytes {
		c.stats.Rejected++
		return
	}
	c.stats.Puts++
	// Replace in place if present; otherwise use the first free way;
	// otherwise evict via CLOCK.
	set, s, tag := miss.set, -1, miss.tag
	if set < 0 || miss.key != k {
		set, s, tag = c.find(k)
	}
	hdr := &c.sets[set]
	if s >= 0 {
		c.stats.UsedBytes -= int64(hdr.lens[s%memWays])
		c.stats.MetaBytes -= memMetaPerSlot
		c.stats.Items--
	} else if free := ^binary.LittleEndian.Uint64(hdr.tags[:]) & lanes80; free != 0 {
		s = set*memWays + bits.TrailingZeros64(free)>>3
	} else {
		s = c.evict(set)
	}
	w := s % memWays
	c.keys[s] = k
	hdr.tags[w], hdr.lens[w], hdr.flags[w] = tag, uint16(len(v)), memFlagRef
	if dirty {
		hdr.flags[w] |= memFlagDirty
	}
	copy(c.slab[s*c.slotBytes:], v)
	c.stats.UsedBytes += int64(len(v))
	c.stats.MetaBytes += memMetaPerSlot
	c.stats.Items++
}

// evict runs the CLOCK hand over the full set and returns the slot of the
// way it frees.
func (c *MemOptimized) evict(set int) int {
	hdr, hand := &c.sets[set], &c.clockHand[set]
	for {
		w := int(*hand)
		*hand = uint8((w + 1) % memWays)
		if hdr.flags[w]&memFlagRef != 0 {
			hdr.flags[w] &^= memFlagRef
			continue
		}
		c.stats.Evictions++
		c.stats.UsedBytes -= int64(hdr.lens[w])
		c.stats.MetaBytes -= memMetaPerSlot
		c.stats.Items--
		return set*memWays + w // put rewrites the way's whole header
	}
}

// FlushDirty invokes fn for each dirty entry, in slot order, and clears the
// dirty bits.
func (c *MemOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for set := range c.sets {
		hdr := &c.sets[set]
		for w := range memWays {
			if hdr.tags[w] != 0 && hdr.flags[w]&memFlagDirty != 0 {
				s := set*memWays + w
				fn(c.keys[s], c.value(s))
				hdr.flags[w] &^= memFlagDirty
			}
		}
	}
}

// Peek returns k's value in its slab slot without touching recency or stats.
func (c *MemOptimized) Peek(k Key) []byte {
	if _, s, _ := c.find(k); s >= 0 {
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
