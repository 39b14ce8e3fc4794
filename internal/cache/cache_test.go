package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"sdm/internal/xrand"
)

func testBasicPutGet(t *testing.T, c RowCache) {
	t.Helper()
	k := Key{Table: 1, Row: 42}
	v := []byte{1, 2, 3, 4}
	c.Put(k, v)
	dst := make([]byte, 16)
	n, ok := c.Get(k, dst)
	if !ok || n != 4 {
		t.Fatalf("get ok=%v n=%d", ok, n)
	}
	for i := range v {
		if dst[i] != v[i] {
			t.Fatalf("value mismatch %v", dst[:n])
		}
	}
	if _, ok := c.Get(Key{Table: 1, Row: 43}, dst); ok {
		t.Fatal("phantom hit")
	}
	if !c.Contains(k) || c.Contains(Key{Table: 9, Row: 9}) {
		t.Fatal("Contains wrong")
	}
}

func TestMemOptimizedBasic(t *testing.T) { testBasicPutGet(t, NewMemOptimized(1<<16, 255)) }
func TestCPUOptimizedBasic(t *testing.T) { testBasicPutGet(t, NewCPUOptimized(1<<16)) }

func testReplace(t *testing.T, c RowCache) {
	t.Helper()
	k := Key{Table: 2, Row: 7}
	c.Put(k, []byte{1, 1})
	c.Put(k, []byte{2, 2, 2})
	dst := make([]byte, 8)
	n, ok := c.Get(k, dst)
	if !ok || n != 3 || dst[0] != 2 {
		t.Fatalf("replace failed: ok=%v n=%d v=%v", ok, n, dst[:n])
	}
}

func TestMemOptimizedReplace(t *testing.T) { testReplace(t, NewMemOptimized(1<<16, 255)) }
func TestCPUOptimizedReplace(t *testing.T) { testReplace(t, NewCPUOptimized(1<<16)) }

func TestCPUOptimizedEvictionBudget(t *testing.T) {
	c := NewCPUOptimized(4 << 10)
	v := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		c.Put(Key{Table: 1, Row: int64(i)}, v)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("over-budget inserts must evict")
	}
	if s.UsedBytes+s.MetaBytes > s.TotalBytes {
		t.Fatalf("resident %d exceeds budget %d", s.UsedBytes+s.MetaBytes, s.TotalBytes)
	}
}

func TestCPUOptimizedLRUOrder(t *testing.T) {
	// Budget for ~3 items of 100 B + 112 B meta.
	c := NewCPUOptimized(700)
	v := make([]byte, 100)
	dst := make([]byte, 128)
	c.Put(Key{Row: 1}, v)
	c.Put(Key{Row: 2}, v)
	c.Put(Key{Row: 3}, v)
	c.Get(Key{Row: 1}, dst) // refresh 1
	c.Put(Key{Row: 4}, v)   // should evict 2 (LRU)
	if !c.Contains(Key{Row: 1}) {
		t.Fatal("recently used entry evicted")
	}
	if c.Contains(Key{Row: 2}) {
		t.Fatal("LRU entry survived")
	}
}

func TestMemOptimizedClockEviction(t *testing.T) {
	c := NewMemOptimized(8*(255+memMetaPerSlot), 255) // exactly one set of 8 ways
	v := make([]byte, 64)
	for i := 0; i < 64; i++ {
		c.Put(Key{Row: int64(i)}, v)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("full set must evict")
	}
	if s.Items > 8 {
		t.Fatalf("items %d exceed capacity", s.Items)
	}
}

func TestMemOptimizedRejectsOversized(t *testing.T) {
	c := NewMemOptimized(1<<16, 64)
	c.Put(Key{Row: 1}, make([]byte, 100))
	if c.Stats().Rejected != 1 {
		t.Fatal("oversized value should be rejected")
	}
	if c.Contains(Key{Row: 1}) {
		t.Fatal("oversized value should not be cached")
	}
}

func TestMemOverheadSmallerThanCPU(t *testing.T) {
	// The Fig. 6 rationale: per-item metadata of the memory-optimized
	// cache is far below the CPU-optimized cache's.
	mem := NewMemOptimized(1<<20, 128)
	cpu := NewCPUOptimized(1 << 20)
	v := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		k := Key{Row: int64(i)}
		mem.Put(k, v)
		cpu.Put(k, v)
	}
	ms, cs := mem.Stats(), cpu.Stats()
	memPer := float64(ms.MetaBytes) / float64(ms.Items)
	cpuPer := float64(cs.MetaBytes) / float64(cs.Items)
	if memPer*2 > cpuPer {
		t.Fatalf("mem-opt overhead %.0fB/item should be well under cpu-opt %.0fB/item", memPer, cpuPer)
	}
	// And its lookups cost more CPU.
	if mem.CPUCostPerGet() <= cpu.CPUCostPerGet() {
		t.Fatal("mem-opt lookups should cost more CPU than cpu-opt")
	}
}

func TestFlushDirty(t *testing.T) {
	for name, c := range map[string]RowCache{
		"mem": NewMemOptimized(1<<16, 255),
		"cpu": NewCPUOptimized(1 << 16),
	} {
		c.Put(Key{Row: 1}, []byte{1})
		c.PutDirty(Key{Row: 2}, []byte{2})
		c.PutDirty(Key{Row: 3}, []byte{3})
		var flushed []int64
		c.FlushDirty(func(k Key, v []byte) { flushed = append(flushed, k.Row) })
		if len(flushed) != 2 {
			t.Fatalf("%s: flushed %v, want rows 2,3", name, flushed)
		}
		// Second flush is a no-op.
		flushed = nil
		c.FlushDirty(func(k Key, v []byte) { flushed = append(flushed, k.Row) })
		if len(flushed) != 0 {
			t.Fatalf("%s: dirty bits not cleared", name)
		}
	}
}

func TestCacheGetReturnsWhatWasPut(t *testing.T) {
	// Property: Get returns the exact bytes of the latest Put, for rows up
	// to each organization's side of the paper's 255-byte split.
	for name, tc := range map[string]struct {
		c      RowCache
		maxLen int
	}{
		"mem": {NewMemOptimized(1<<22, 255), 255},
		"cpu": {NewCPUOptimized(1 << 22), 500},
	} {
		f := func(table int32, row int64, val []byte) bool {
			if len(val) == 0 || len(val) > tc.maxLen {
				return true
			}
			k := Key{Table: table, Row: row}
			tc.c.Put(k, val)
			dst := make([]byte, 512)
			n, ok := tc.c.Get(k, dst)
			return ok && bytes.Equal(dst[:n], val)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestKeyHashSpread(t *testing.T) {
	// Adjacent rows should not collide into the same bucket pattern.
	seen := make(map[uint64]bool)
	for i := int64(0); i < 10000; i++ {
		h := Key{Table: 3, Row: i}.hash()
		if seen[h] {
			t.Fatalf("hash collision at row %d", i)
		}
		seen[h] = true
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Hits: 1, Misses: 2, Items: 3}
	b := Stats{Hits: 10, Misses: 20, Items: 30}
	c := a.Add(b)
	if c.Hits != 11 || c.Misses != 22 || c.Items != 33 {
		t.Fatalf("add %+v", c)
	}
}

// TestPeekTouchesNothing drives two identical caches of each kind through
// the same seeded run of puts (with evictions) and gets, and peeks only one
// of them between every two steps. A peek returns the bytes last put for its
// key, or nil, exactly as the next Get of that key sees them; and the peeked
// cache must stay in step with the other — the same Get results, the same
// Stats, the same rows left at the end — so a Peek that set a CLOCK bit or
// moved an LRU element would show as a different eviction victim.
func TestPeekTouchesNothing(t *testing.T) {
	for _, kind := range []struct {
		name string
		mk   func() RowCache
	}{
		{"mem", func() RowCache { return NewMemOptimized(16*(32+memMetaPerSlot), 32) }}, // two sets of 8 ways
		{"cpu", func() RowCache { return NewCPUOptimized(8 * (32 + cpuMetaPerItem)) }},  // eight rows
	} {
		t.Run(kind.name, func(t *testing.T) {
			peeked, plain := kind.mk(), kind.mk()
			const keys = 40
			key := func(i uint64) Key { return Key{Table: 3, Row: int64(i % keys)} }
			want := make(map[Key][]byte)
			rng := xrand.New(7)
			got, ref := make([]byte, 32), make([]byte, 32)
			for step := 0; step < 4000; step++ {
				// Peeks at a random row and at row 0, then at the step's own key.
				for _, k := range []Key{key(rng.Uint64()), key(0)} {
					if p := peeked.Peek(k); p != nil && !bytes.Equal(p, want[k]) {
						t.Fatalf("step %d: Peek(%v) = %v, last put %v", step, k, p, want[k])
					}
				}
				k := key(rng.Uint64())
				p := peeked.Peek(k)
				if p != nil && !bytes.Equal(p, want[k]) {
					t.Fatalf("step %d: Peek(%v) = %v, last put %v", step, k, p, want[k])
				}
				if rng.Intn(3) == 0 {
					v := make([]byte, 1+rng.Intn(32))
					for i := range v {
						v[i] = byte(rng.Uint64())
					}
					want[k] = v
					peeked.Put(k, v)
					plain.Put(k, v)
				} else {
					n, ok := peeked.Get(k, got)
					m, refOK := plain.Get(k, ref)
					if ok != (p != nil) || ok && !bytes.Equal(got[:n], p) {
						t.Fatalf("step %d: Get(%v) = %v %v after Peek returned %v", step, k, ok, got[:n], p)
					}
					if ok != refOK || !bytes.Equal(got[:n], ref[:m]) {
						t.Fatalf("step %d: Get(%v) = %v %v on the peeked cache, %v %v on the other", step, k, ok, got[:n], refOK, ref[:m])
					}
				}
				if peeked.Stats() != plain.Stats() {
					t.Fatalf("step %d: peeked cache stats %+v, other %+v", step, peeked.Stats(), plain.Stats())
				}
			}
			if plain.Stats().Evictions == 0 {
				t.Fatal("the run evicted nothing")
			}
			for i := uint64(0); i < keys; i++ {
				_, ok := peeked.Get(key(i), got)
				_, refOK := plain.Get(key(i), ref)
				if ok != refOK {
					t.Fatalf("row %d resident %v in the peeked cache, %v in the other", i, ok, refOK)
				}
			}
		})
	}
}
