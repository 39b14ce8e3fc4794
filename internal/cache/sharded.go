package cache

// TableSharded is the aggregate view over per-table row-cache shards. One
// embedding operator touches exactly one table, so the store gives each
// table its own RowCache, sized from the table's share of the FM budget,
// and probes it directly. What is left to do across shards is summing their
// counters and draining their dirty rows.
//
// Shards are registered with Add in a fixed order and both operations walk
// them in that order, so flush-driven device writes stay deterministic. The
// zero value is an empty set.
type TableSharded struct {
	shards []RowCache
}

// Add registers one table's shard.
func (t *TableSharded) Add(shard RowCache) { t.shards = append(t.shards, shard) }

// FlushDirty flushes every shard in registration order, so write-back IO
// is issued in a deterministic sequence.
func (t *TableSharded) FlushDirty(fn func(k Key, v []byte)) {
	for _, c := range t.shards {
		c.FlushDirty(fn)
	}
}

// Stats sums all shards in registration order.
func (t *TableSharded) Stats() Stats {
	var s Stats
	for _, c := range t.shards {
		s = s.add(c.Stats())
	}
	return s
}
