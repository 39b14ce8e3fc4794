package cache

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
)

// MemOptimized is the memory-optimized row cache of §4.3: a set-associative
// design with fixed-size value slots and compact per-slot metadata. Lookups
// search the ways of one set ("requires search in a bucket"), trading CPU
// for per-item memory overhead.
//
// Each set's metadata is one 32-byte header, two to a cache line: a tag,
// flag byte and length per way. A way's tag is 0x80 | 7 bits of its key's
// hash, and 0 when the way is empty, so find compares the eight tags in one
// word and reads a way's key only when its tag matches: a miss touches one
// metadata line.
//
// An entry's bytes are a view or owned. A view is row Key.Row of src, the
// loaded table, and costs one flag bit: Put stores one when it is handed
// that very row, as an SM read of a clean device lends it. Every other value
// — a dirty row, an update, a row of a device a write has changed — is
// copied into the owned row its slot's memKey names. Owned row r lives in
// chunk k = ⌊log2(r+1)⌋ of owned, 2^k rows in one allocation, so owned
// doubles with the owned entries and holds no pointer per row; free lists
// the rows no entry holds. The budget, Stats and evictions count every
// entry as a full slot either way.
type MemOptimized struct {
	sets      []memSet
	keys      []memKey // slot set*memWays + way
	clockHand []uint8  // per-set CLOCK position, read only to evict
	src       []byte
	owned     [][]byte // chunk k: 2^k rows of slotBytes
	free      []int32
	slotBytes int
	// miss is the key and set of the last Get that missed, kept until the
	// next put: the caller's Put of the row it then read from SM skips a
	// second probe.
	miss  memMiss
	stats Stats
}

// memKey is a slot's key, and the slot's owned row when it holds one, in
// the 16 bytes a Key takes.
type memKey struct {
	row   int64
	table int32
	own   int32
}

// memSet is one set's header.
type memSet struct {
	tags  [memWays]uint8
	flags [memWays]uint8 // memFlagRef, memFlagDirty, memFlagView
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
	memFlagView // the bytes are row Key.Row of src
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
// budget and no loaded table. slotBytes is the maximum row size it accepts
// (0 → 255), at most 65 535 (a set header's length field).
func NewMemOptimized(budget int64, slotBytes int) *MemOptimized {
	return newMemOptimized(budget, slotBytes, nil)
}

func newMemOptimized(budget int64, slotBytes int, src []byte) *MemOptimized {
	if slotBytes <= 0 {
		slotBytes = 255
	}
	slotBytes = min(slotBytes, math.MaxUint16)
	perSlot := int64(slotBytes + memMetaPerSlot)
	slots := int(budget / perSlot)
	if slots < memWays {
		slots = memWays
	}
	sets := slots / memWays
	slots = sets * memWays
	return &MemOptimized{
		sets:      make([]memSet, sets),
		keys:      make([]memKey, slots),
		clockHand: make([]uint8, sets),
		src:       src,
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
		if s := set*memWays + bits.TrailingZeros64(m)>>3; c.keys[s].row == k.Row && c.keys[s].table == k.Table {
			return set, s, tag
		}
	}
	return set, -1, tag
}

// value returns slot s's value bytes: its row of src or its owned row.
func (c *MemOptimized) value(s int) []byte {
	hdr, w := &c.sets[s/memWays], s%memWays
	n := int64(hdr.lens[w])
	if hdr.flags[w]&memFlagView != 0 {
		at := c.keys[s].row * n
		return c.src[at : at+n : at+n]
	}
	return c.ownedRow(c.keys[s].own)[:n:n]
}

// Get returns k's value: a view in place, an owned value copied into dst.
func (c *MemOptimized) Get(k Key, dst []byte) ([]byte, bool) {
	set, s, tag := c.find(k)
	if s < 0 {
		c.stats.Misses++
		c.miss = memMiss{key: k, set: set, tag: tag}
		return nil, false
	}
	flags := &c.sets[set].flags[s%memWays]
	*flags |= memFlagRef
	c.stats.Hits++
	v := c.value(s)
	if *flags&memFlagView == 0 {
		v = dst[:copy(dst[:len(v)], v)]
	}
	return v, true
}

// Put inserts or replaces k's value. Values larger than the slot size are
// rejected (counted in Stats.Rejected) — the dual router prevents this in
// normal operation.
func (c *MemOptimized) Put(k Key, v []byte) { c.put(k, v, false) }

// PutDirty inserts a copy of k's value and marks it dirty.
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
	if s < 0 {
		if free := ^binary.LittleEndian.Uint64(hdr.tags[:]) & lanes80; free != 0 {
			s = set*memWays + bits.TrailingZeros64(free)>>3
		} else {
			s = c.evict(set)
		}
	}
	w, own := s%memWays, int32(-1)
	if hdr.tags[w] != 0 { // the replaced or evicted entry; its owned row is reused or freed
		if hdr.flags[w]&memFlagView == 0 {
			own = c.keys[s].own
		}
		c.stats.UsedBytes -= int64(hdr.lens[w])
		c.stats.MetaBytes -= memMetaPerSlot
		c.stats.Items--
	}
	view := !dirty && isLoadedRow(c.src, k.Row, v)
	hdr.tags[w], hdr.lens[w], hdr.flags[w] = tag, uint16(len(v)), memFlagRef
	switch {
	case dirty:
		hdr.flags[w] |= memFlagDirty
	case view:
		hdr.flags[w] |= memFlagView
	}
	switch {
	case view && own >= 0:
		c.free = append(c.free, own)
	case !view && own < 0:
		own = c.alloc()
	}
	c.keys[s] = memKey{row: k.Row, table: k.Table, own: own}
	if !view {
		copy(c.ownedRow(own), v)
	}
	c.stats.UsedBytes += int64(len(v))
	c.stats.MetaBytes += memMetaPerSlot
	c.stats.Items++
}

// alloc returns an owned row no entry holds, adding the next chunk, as
// many rows as owned holds plus one, when none is free.
func (c *MemOptimized) alloc() int32 {
	if len(c.free) == 0 {
		k := len(c.owned)
		c.owned = append(c.owned, make([]byte, c.slotBytes<<k))
		for r := 1<<(k+1) - 2; r >= 1<<k-1; r-- {
			c.free = append(c.free, int32(r))
		}
	}
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return r
}

// ownedRow returns owned row r.
func (c *MemOptimized) ownedRow(r int32) []byte {
	k := bits.Len32(uint32(r)+1) - 1
	at := (int(r) + 1 - 1<<k) * c.slotBytes
	return c.owned[k][at : at+c.slotBytes : at+c.slotBytes]
}

// evict runs the CLOCK hand over the full set and returns the slot of the
// way it frees; put takes the entry out of the counts and rewrites the way.
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
		return set*memWays + w
	}
}

// FlushDirty invokes fn for each dirty entry, in slot order, and clears the
// dirty bits. An entry equal to its loaded row then becomes a view of it.
func (c *MemOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for set := range c.sets {
		hdr := &c.sets[set]
		for w := range memWays {
			if hdr.tags[w] != 0 && hdr.flags[w]&memFlagDirty != 0 {
				s := set*memWays + w
				e, v := &c.keys[s], c.value(s)
				fn(Key{Table: e.table, Row: e.row}, v)
				hdr.flags[w] &^= memFlagDirty
				if r := loadedRow(c.src, e.row, len(v)); r != nil && bytes.Equal(v, r) {
					c.free = append(c.free, e.own)
					hdr.flags[w] |= memFlagView
				}
			}
		}
	}
}

// Peek returns k's value in place without touching recency or stats.
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
