package cache

import "testing"

func TestTableShardedAggregateStats(t *testing.T) {
	var s TableSharded
	c1, c2 := NewCPUOptimized(1<<16), NewCPUOptimized(1<<16)
	s.Add(c1)
	s.Add(c2)
	c1.Put(Key{Table: 1, Row: 7}, []byte{1, 2, 3})
	c2.Put(Key{Table: 2, Row: 7}, []byte{4, 5})
	dst := make([]byte, 8)
	if _, ok := c1.Get(Key{Table: 1, Row: 7}, dst); !ok {
		t.Fatal("table 1 row lost")
	}
	if _, ok := c2.Get(Key{Table: 2, Row: 7}, dst); !ok {
		t.Fatal("table 2 row lost")
	}
	if got := s.Stats(); got.Items != 2 || got.Hits != 2 || got.UsedBytes != 5 {
		t.Fatalf("aggregate stats %+v", got)
	}
}

func TestTableShardedFlushOrder(t *testing.T) {
	var s TableSharded
	c5, c2 := NewCPUOptimized(1<<16), NewCPUOptimized(1<<16)
	s.Add(c5)
	s.Add(c2)
	c2.PutDirty(Key{Table: 2, Row: 1}, []byte{2})
	c5.PutDirty(Key{Table: 5, Row: 1}, []byte{5})
	var order []int32
	s.FlushDirty(func(k Key, v []byte) { order = append(order, k.Table) })
	// Registration order (5 then 2), not key order.
	if len(order) != 2 || order[0] != 5 || order[1] != 2 {
		t.Fatalf("flush order %v, want [5 2]", order)
	}
	// Flushed entries must be clean now.
	count := 0
	s.FlushDirty(func(Key, []byte) { count++ })
	if count != 0 {
		t.Fatalf("second flush saw %d dirty entries", count)
	}
}

func TestTableShardedEmpty(t *testing.T) {
	var s TableSharded
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("empty stats %+v", got)
	}
	s.FlushDirty(func(Key, []byte) { t.Fatal("empty set flushed a row") })
}
