package cache

import (
	"bytes"
	"math"
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

// TestMemOptimizedMatchesReference drives MemOptimized, built over a loaded
// table, and the copying reference through the same seeded run of every
// RowCache operation (driveAgainstReference) and compares each return value,
// the bytes a Get returns or a Peek returns, each FlushDirty's callbacks in
// order, and Stats after every operation. The key pool mixes rows that
// spread over the sets with rows forced into set 0 under one tag and rows
// at the ends of the int64 range; values run from empty to one byte over
// the slot and are the loaded table's own rows (views), its rows at another
// key, equal bytes from elsewhere, or a scratch buffer the run rewrites
// after each put. A Get is often followed by the Put of the key it missed,
// as the store's SM path does.
func TestMemOptimizedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		sets      int
		slotBytes int
	}{{"one-set", 1, 16}, {"four-sets", 4, 32}, {"sixty-four-sets", 64, 8}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(uint64(tc.sets))
			const ops = 120_000
			n := driveAgainstReference(t, tc.sets, tc.slotBytes, ops, rng.Intn)
			if n.ref.Evictions == 0 || n.ref.Rejected == 0 || n.ref.Hits == 0 {
				t.Fatalf("the run missed a path: %+v", n.ref)
			}
			if n.viewHits == 0 || n.toView == 0 || n.toOwned == 0 || n.dirtyLoaded == 0 || n.flushedToView == 0 {
				t.Fatalf("the run missed a view path: %+v", n)
			}
		})
	}
}

// FuzzMemOptimizedViews is TestMemOptimizedMatchesReference's script with
// the geometry and every choice read from the input.
func FuzzMemOptimizedViews(f *testing.F) {
	f.Add([]byte{0, 15, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{3, 7, 6, 6, 0, 0, 6, 6, 1, 1, 8, 8, 19, 19, 2, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		sets, slotBytes, in := 1+int(in[0]%8), 1+int(in[1]%32), in[2:]
		pick := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			c := int(in[0]) % n
			in = in[1:]
			return c
		}
		driveAgainstReference(t, sets, slotBytes, len(in)/2, pick)
	})
}

// viewCounts tallies the paths a reference run took.
type viewCounts struct {
	ref           Stats
	viewHits      int // Gets that returned a loaded row in place
	toView        int // puts that turned an owned entry into a view
	toOwned       int // puts that turned a view into an owned entry
	dirtyLoaded   int // PutDirty calls handed a loaded row
	flushedToView int // flushed entries equal to their loaded row
}

// driveAgainstReference runs steps random RowCache operations, each choice
// drawn from pick (pick(n) ∈ [0, n)), on a MemOptimized over a loaded table
// and on the copying reference, and fails on the first difference. Besides
// the reference's answers it holds the cache to the rule for views: a clean
// Put of a key's own loaded row is a view (Peek returns that row), every
// other value is a copy (never the caller's bytes, nor a loaded row for a
// dirty entry) until FlushDirty finds it equal to its loaded row, and the
// loaded table is never written. The first operation
// puts an empty value, which must be resident before any other value is.
func driveAgainstReference(t testing.TB, sets, slotBytes, steps int, pick func(n int) int) viewCounts {
	t.Helper()
	budget := int64(sets * memWays * (slotBytes + memMetaPerSlot))
	keys := sameTagKeys(sets, 2*memWays)
	for i := range 6 * sets * memWays {
		keys = append(keys, Key{Table: int32(i % 3), Row: int64(i)})
	}
	rows := int64(0)
	for _, k := range keys {
		rows = max(rows, k.Row+1)
	}
	keys = append(keys, Key{Row: math.MaxInt64}, Key{Table: 1, Row: math.MaxInt64 - 1}, Key{Row: -1})
	src := make([]byte, rows*int64(slotBytes))
	for i := range src {
		src[i] = byte(pick(256))
	}
	loaded := bytes.Clone(src)
	got, ref := newMemOptimized(budget, slotBytes, src), newRefMemOptimized(budget, slotBytes)
	if len(got.sets) != sets || ref.sets != sets {
		t.Fatalf("%d and %d sets, want %d", len(got.sets), ref.sets, sets)
	}
	// row returns row r of src, n bytes wide, or nil past its end.
	row := func(r int64, n int) []byte {
		if r < 0 || r >= int64(len(src)/max(n, 1)) {
			return nil
		}
		return src[r*int64(n) : (r+1)*int64(n)]
	}
	scratch := make([]byte, slotBytes+1)
	value := func(k Key) []byte {
		switch pick(6) {
		case 0: // the key's own loaded row: a view
			if v := row(k.Row, slotBytes); v != nil {
				return v
			}
		case 1: // the key's own row of a narrower table: a view too
			if v := row(k.Row, 1+pick(slotBytes)); v != nil {
				return v
			}
		case 2: // another key's loaded row
			return row(int64(pick(int(rows))), slotBytes)
		case 3: // the key's row, copied
			return bytes.Clone(row(k.Row, slotBytes))
		}
		v := scratch[:pick(slotBytes+2)] // 0 … slotBytes+1
		for i := range v {
			v[i] = byte(pick(256))
		}
		return v
	}
	dirty := make(map[Key]bool)
	var n viewCounts
	put := func(step int, k Key, v []byte, isDirty bool) {
		before := got.Peek(k)
		if isDirty {
			got.PutDirty(k, v)
			ref.PutDirty(k, v)
		} else {
			got.Put(k, v)
			ref.Put(k, v)
		}
		after := got.Peek(k)
		if len(v) > slotBytes {
			return
		}
		dirty[k] = isDirty
		own := row(k.Row, len(v))
		wasView, isView := sameRow(before, own), sameRow(after, own)
		switch {
		case after == nil:
			t.Fatalf("step %d: Put(%v) of %d bytes left nothing resident", step, k, len(v))
		case !isDirty && len(v) > 0 && sameRow(v, own) && !isView:
			t.Fatalf("step %d: a clean Put(%v) of its loaded row copied it", step, k)
		case isView && (isDirty || !sameRow(v, own)):
			t.Fatalf("step %d: Put(%v) (dirty %v) of bytes that are not its clean loaded row made a view", step, k, isDirty)
		case len(v) > 0 && !isView && &after[0] == &v[0]:
			t.Fatalf("step %d: Put(%v) kept the caller's bytes", step, k)
		case wasView && !isView:
			n.toOwned++
		case !wasView && isView && before != nil:
			n.toView++
		}
		if isDirty && sameRow(v, row(k.Row, len(v))) {
			n.dirtyLoaded++
		}
	}
	type flushed struct {
		k Key
		v string
	}
	var flA, flB []flushed
	dstA, dstB := make([]byte, slotBytes), make([]byte, slotBytes)
	for step := range steps {
		k, op := keys[pick(len(keys))], pick(20)
		switch {
		case step == 0: // an empty Put, with no owned storage yet
			put(step, k, src[:0], false)
			if !got.Contains(k) {
				t.Fatalf("an empty value put into a fresh cache is not resident")
			}
		case op < 6: // Get, then the Put of a row it missed
			a, ok := got.Get(k, dstA)
			m, refOK := ref.Get(k, dstB)
			if ok != refOK || !bytes.Equal(a, dstB[:m]) {
				t.Fatalf("step %d: Get(%v) = %v %v, reference %d %v %v", step, k, a, ok, m, refOK, dstB[:m])
			}
			if sameRow(a, row(k.Row, len(a))) {
				n.viewHits++
			}
			if !ok && op < 4 {
				put(step, k, value(k), false)
			}
		case op < 10:
			put(step, k, value(k), false)
		case op < 12:
			put(step, k, value(k), true)
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
			got.FlushDirty(func(k Key, v []byte) {
				if sameRow(v, row(k.Row, len(v))) {
					t.Fatalf("step %d: FlushDirty handed %v's loaded row", step, k)
				}
				flA = append(flA, flushed{k, string(v)})
			})
			ref.FlushDirty(func(k Key, v []byte) { flB = append(flB, flushed{k, string(v)}) })
			if !slices.Equal(flA, flB) {
				t.Fatalf("step %d: FlushDirty called back %v, reference %v", step, flA, flB)
			}
			for _, f := range flA {
				own := row(f.k.Row, len(f.v))
				if len(f.v) == 0 || own == nil || string(own) != f.v {
					continue
				}
				if !sameRow(got.Peek(f.k), own) {
					t.Fatalf("step %d: flushed %v equals its loaded row but is not a view of it", step, f.k)
				}
				n.flushedToView++
			}
			clear(dirty)
		}
		if p := got.Peek(k); dirty[k] && sameRow(p, row(k.Row, len(p))) {
			t.Fatalf("step %d: dirty %v is a view of its loaded row", step, k)
		}
		if a, b := got.Stats(), ref.Stats(); a != b {
			t.Fatalf("step %d: Stats %+v, reference %+v", step, a, b)
		}
		if step%256 == 0 || step == steps-1 {
			checkOwnedRows(t, got)
		}
	}
	if !bytes.Equal(src, loaded) {
		t.Fatal("the cache wrote the loaded table")
	}
	n.ref = ref.Stats()
	return n
}

// checkOwnedRows fails unless each of c's owned rows is held by exactly
// one owned entry or listed once in c.free.
func checkOwnedRows(t testing.TB, c *MemOptimized) {
	t.Helper()
	held := make(map[int32]bool)
	hold := func(r int32) {
		if held[r] {
			t.Fatalf("owned row %d is held twice", r)
		}
		held[r] = true
	}
	for s := range c.keys {
		if hdr, w := &c.sets[s/memWays], s%memWays; hdr.tags[w] != 0 && hdr.flags[w]&memFlagView == 0 {
			hold(c.keys[s].own)
		}
	}
	for _, r := range c.free {
		hold(r)
	}
	if rows := 1<<len(c.owned) - 1; len(held) != rows {
		t.Fatalf("%d of %d owned rows are held or free", len(held), rows)
	}
}

// sameRow reports whether a and b are the same non-empty bytes in memory.
func sameRow(a, b []byte) bool { return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] }

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
