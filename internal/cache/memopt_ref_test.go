package cache

import (
	"bytes"
	"slices"
	"testing"

	"sdm/internal/xrand"
)

// refMemOptimized is the memory-optimized cache as it was before its sets
// got tag headers: a flag byte per slot and a linear key scan over the ways.
// It is kept verbatim (bar the names) as the reference that
// TestMemOptimizedMatchesReference holds MemOptimized to, operation by
// operation.
type refMemOptimized struct {
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
	refFlagValid = 1 << iota
	refFlagRef
	refFlagDirty
)

// newRefMemOptimized builds a memory-optimized cache with the given byte
// budget. slotBytes is the maximum row size it accepts (0 → 255).
func newRefMemOptimized(budget int64, slotBytes int) *refMemOptimized {
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
	return &refMemOptimized{
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
func (c *refMemOptimized) find(k Key) (base, slot int) {
	base = int(k.hash()%uint64(c.sets)) * memWays
	keys, flags := c.keys[base:base+memWays], c.flags[base:base+memWays]
	for w := range keys {
		if flags[w]&refFlagValid != 0 && keys[w] == k {
			return base, base + w
		}
	}
	return base, -1
}

// value returns slot s's value bytes in the slab.
func (c *refMemOptimized) value(s int) []byte {
	at := s * c.slotBytes
	return c.slab[at : at+int(c.lens[s]) : at+int(c.lens[s])]
}

// Get copies the value for k into dst.
func (c *refMemOptimized) Get(k Key, dst []byte) (int, bool) {
	_, s := c.find(k)
	if s < 0 {
		c.stats.Misses++
		return 0, false
	}
	c.flags[s] |= refFlagRef
	n := copy(dst[:c.lens[s]], c.value(s))
	c.stats.Hits++
	return n, true
}

// Put inserts or replaces k's value. Values larger than the slot size are
// rejected (counted in Stats.Rejected) — the dual router prevents this in
// normal operation.
func (c *refMemOptimized) Put(k Key, v []byte) { c.put(k, v, false) }

// PutDirty inserts k's value and marks it dirty.
func (c *refMemOptimized) PutDirty(k Key, v []byte) { c.put(k, v, true) }

func (c *refMemOptimized) put(k Key, v []byte, dirty bool) {
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
			if f&refFlagValid == 0 {
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
	c.flags[s] = refFlagValid | refFlagRef
	if dirty {
		c.flags[s] |= refFlagDirty
	}
	copy(c.slab[s*c.slotBytes:], v)
	c.stats.UsedBytes += int64(len(v))
	c.stats.MetaBytes += memMetaPerSlot
	c.stats.Items++
}

// evict runs the CLOCK hand over the set whose first slot is base and
// returns a freed slot index.
func (c *refMemOptimized) evict(base int) int {
	hand := &c.clockHand[base/memWays]
	for {
		s := base + *hand
		*hand = (*hand + 1) % memWays
		if c.flags[s]&refFlagRef != 0 {
			c.flags[s] &^= refFlagRef
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
func (c *refMemOptimized) FlushDirty(fn func(k Key, v []byte)) {
	for s := range c.flags {
		if c.flags[s]&(refFlagValid|refFlagDirty) == refFlagValid|refFlagDirty {
			fn(c.keys[s], c.value(s))
			c.flags[s] &^= refFlagDirty
		}
	}
}

// Peek returns k's value in its slab slot without touching recency or stats.
func (c *refMemOptimized) Peek(k Key) []byte {
	if _, s := c.find(k); s >= 0 {
		return c.value(s)
	}
	return nil
}

// Contains reports residency without touching recency or stats.
func (c *refMemOptimized) Contains(k Key) bool { return c.Peek(k) != nil }

// Stats returns a snapshot of counters.
func (c *refMemOptimized) Stats() Stats { return c.stats }

// CPUCostPerGet returns the relative lookup cost.
func (c *refMemOptimized) CPUCostPerGet() float64 { return memOptCPUCost }

// TestMemOptimizedMatchesReference drives MemOptimized and the reference
// through the same seeded run of every RowCache operation and compares each
// return value, the bytes a Get copies or a Peek returns, each FlushDirty's
// callbacks in order, and Stats after every operation. The key pool mixes
// rows that spread over the sets with rows forced into set 0 under one tag,
// values run from empty to one byte over the slot, and a Get is often
// followed by the Put of the key it missed, as the store's SM path does.
func TestMemOptimizedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sets      int
		slotBytes int
	}{{"one-set", 1, 16}, {"four-sets", 4, 32}, {"sixty-four-sets", 64, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			budget := int64(tc.sets * memWays * (tc.slotBytes + memMetaPerSlot))
			got, ref := NewMemOptimized(budget, tc.slotBytes), newRefMemOptimized(budget, tc.slotBytes)
			if len(got.sets) != tc.sets || ref.sets != tc.sets {
				t.Fatalf("%d and %d sets, want %d", len(got.sets), ref.sets, tc.sets)
			}
			keys := sameTagKeys(tc.sets, 2*memWays)
			for i := range 6 * tc.sets * memWays {
				keys = append(keys, Key{Table: int32(i % 3), Row: int64(i)})
			}
			rng := xrand.New(uint64(tc.sets))
			value := func() []byte {
				v := make([]byte, rng.Intn(tc.slotBytes+2)) // 0 … slotBytes+1
				for i := range v {
					v[i] = byte(rng.Uint64())
				}
				return v
			}
			dstA, dstB := make([]byte, tc.slotBytes), make([]byte, tc.slotBytes)
			type flushed struct {
				k Key
				v string
			}
			var flA, flB []flushed
			const ops = 120_000
			for step := range ops {
				k := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(20); {
				case op < 6: // Get, then the Put of a row it missed
					n, ok := got.Get(k, dstA)
					m, refOK := ref.Get(k, dstB)
					if ok != refOK || n != m || !bytes.Equal(dstA[:n], dstB[:m]) {
						t.Fatalf("step %d: Get(%v) = %d %v %v, reference %d %v %v", step, k, n, ok, dstA[:n], m, refOK, dstB[:m])
					}
					if !ok && op < 4 {
						v := value()
						got.Put(k, v)
						ref.Put(k, v)
					}
				case op < 10:
					v := value()
					got.Put(k, v)
					ref.Put(k, v)
				case op < 12:
					v := value()
					got.PutDirty(k, v)
					ref.PutDirty(k, v)
				case op < 15:
					a, b := got.Peek(k), ref.Peek(k)
					if (a == nil) != (b == nil) || !bytes.Equal(a, b) {
						t.Fatalf("step %d: Peek(%v) = %v, reference %v", step, k, a, b)
					}
				case op < 18:
					if a, b := got.Contains(k), ref.Contains(k); a != b {
						t.Fatalf("step %d: Contains(%v) = %v, reference %v", step, k, a, b)
					}
				default:
					flA, flB = flA[:0], flB[:0]
					got.FlushDirty(func(k Key, v []byte) { flA = append(flA, flushed{k, string(v)}) })
					ref.FlushDirty(func(k Key, v []byte) { flB = append(flB, flushed{k, string(v)}) })
					if !slices.Equal(flA, flB) {
						t.Fatalf("step %d: FlushDirty called back %v, reference %v", step, flA, flB)
					}
				}
				if a, b := got.Stats(), ref.Stats(); a != b {
					t.Fatalf("step %d: Stats %+v, reference %+v", step, a, b)
				}
			}
			if s := ref.Stats(); s.Evictions == 0 || s.Rejected == 0 || s.Hits == 0 {
				t.Fatalf("the run missed a path: %+v", s)
			}
		})
	}
}

// sameTagKeys returns n keys that all map to set 0 of a cache with the
// given number of sets and share one tag, so only their keys tell them
// apart.
func sameTagKeys(sets, n int) []Key {
	var keys []Key
	var tag uint64
	for row := int64(0); len(keys) < n; row++ {
		k := Key{Table: 7, Row: row}
		h := k.hash()
		if h%uint64(sets) != 0 || len(keys) > 0 && h>>57 != tag {
			continue
		}
		tag = h >> 57
		keys = append(keys, k)
	}
	return keys
}
