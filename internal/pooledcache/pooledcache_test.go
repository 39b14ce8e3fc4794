package pooledcache

import (
	"testing"
	"testing/quick"
)

func TestHashOrderInvariance(t *testing.T) {
	a := HashIndices([]int64{1, 2, 3, 4})
	b := HashIndices([]int64{4, 3, 2, 1})
	c := HashIndices([]int64{2, 4, 1, 3})
	if a != b || b != c {
		t.Fatal("hash must be order-invariant (pooling is commutative)")
	}
}

func TestHashMultisetSensitive(t *testing.T) {
	a := HashIndices([]int64{1, 2, 3})
	b := HashIndices([]int64{1, 2, 3, 3})
	c := HashIndices([]int64{1, 2, 4})
	if a == b {
		t.Fatal("repeat count must change the hash")
	}
	if a == c {
		t.Fatal("different multiset must change the hash")
	}
}

func TestHashPropertyPermutation(t *testing.T) {
	f := func(xs []int64, swapA, swapB uint8) bool {
		if len(xs) < 2 {
			return true
		}
		i, j := int(swapA)%len(xs), int(swapB)%len(xs)
		orig := HashIndices(xs)
		xs[i], xs[j] = xs[j], xs[i]
		return HashIndices(xs) == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitAfterPut(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, LenThreshold: 2})
	idx := []int64{5, 9, 13}
	vec := []float32{1, 2, 3, 4}
	if got := c.Get(1, idx); got != nil {
		t.Fatal("cold cache should miss")
	}
	c.Put(1, idx, vec)
	got := c.Get(1, idx)
	if got == nil {
		t.Fatal("miss after put")
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Fatalf("vector mismatch %v", got)
		}
	}
	// Permuted sequence hits too (order-invariant key).
	if c.Get(1, []int64{13, 5, 9}) == nil {
		t.Fatal("permuted sequence should hit")
	}
	// Different table misses.
	if c.Get(2, idx) != nil {
		t.Fatal("table id must be part of the key")
	}
}

func TestLenThresholdSkip(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, LenThreshold: 4})
	short := []int64{1, 2, 3} // len 3 <= threshold 4
	c.Put(1, short, []float32{1})
	if got := c.Get(1, short); got != nil {
		t.Fatal("below-threshold sequence should never be cached")
	}
	s := c.Stats()
	if s.Skipped == 0 {
		t.Fatal("skips must be counted")
	}
	if s.Misses != 0 {
		t.Fatal("skips are not misses")
	}
}

func TestAvgHitLen(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, LenThreshold: 1})
	a := []int64{1, 2, 3, 4}          // len 4
	b := []int64{1, 2, 3, 4, 5, 6, 7} // len 7... wait threshold=1 so len>1 cached
	c.Put(1, a, []float32{1})
	c.Put(1, b, []float32{1})
	c.Get(1, a)
	c.Get(1, b)
	if got := c.Stats().AvgHitLen(); got != 5.5 {
		t.Fatalf("avg hit len %g, want 5.5", got)
	}
}

func TestEvictionBudget(t *testing.T) {
	c := New(Config{CapacityBytes: 4 << 10, LenThreshold: 1})
	vec := make([]float32, 64) // 256 B + 128 meta
	for i := int64(0); i < 100; i++ {
		c.Put(1, []int64{i, i + 1, i + 2}, vec)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("over-budget puts must evict")
	}
	if s.UsedBytes+s.Items*metaPerItem > 4<<10 {
		t.Fatalf("resident %d over budget", s.UsedBytes+s.Items*metaPerItem)
	}
}

func TestHitRateAccounting(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, LenThreshold: 1})
	seq := []int64{1, 2, 3}
	c.Get(1, seq) // miss
	c.Put(1, seq, []float32{1})
	c.Get(1, seq)        // hit
	c.Get(1, []int64{9}) // skipped (len 1 <= threshold)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Skipped != 1 {
		t.Fatalf("stats %+v", s)
	}
	want := 1.0 / 3
	if got := s.HitRate(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("hit rate %g, want %g", got, want)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := New(Config{})
	if c.cfg.CapacityBytes <= 0 || c.cfg.LenThreshold <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestReplaceExisting(t *testing.T) {
	c := New(Config{CapacityBytes: 1 << 20, LenThreshold: 1})
	seq := []int64{1, 2, 3}
	c.Put(1, seq, []float32{1, 1})
	c.Put(1, seq, []float32{2, 2, 2})
	got := c.Get(1, seq)
	if len(got) != 3 || got[0] != 2 {
		t.Fatalf("replace failed: %v", got)
	}
	if c.Stats().Items != 1 {
		t.Fatal("replace should not duplicate")
	}
}
