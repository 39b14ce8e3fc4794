package core

import (
	"fmt"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/embedding"
	"sdm/internal/placement"
	"sdm/internal/simclock"
)

// UpdateMode selects how new weights stream in while the host serves
// traffic (§A.3).
type UpdateMode int

// Update modes from §A.3.
const (
	// UpdateOffline writes straight to SM with the host out of rotation:
	// no read/write mixing (which "would considerably impact performance
	// of Nand flash"), but the host serves nothing meanwhile.
	UpdateOffline UpdateMode = iota + 1
	// UpdateOnline updates the FM cache first (dirty entries) and lets
	// write-back drain to SM, keeping the host serving.
	UpdateOnline
)

// UpdateRow applies one incremental row update at virtual time now.
// The row value must already be encoded in the table's stored QType.
func (s *Store) UpdateRow(now simclock.Time, table int, row int64, value []byte, mode UpdateMode) (simclock.Time, error) {
	if table < 0 || table >= len(s.tables) {
		return now, fmt.Errorf("core: update table %d out of range", table)
	}
	st := s.tables[table]
	if st.target == placement.FM {
		// FM tables update in place, once the store owns its copy: the
		// loaded table is the caller's, so the first write that changes a
		// byte clones it for this store alone, as for a promoted range.
		dst, err := st.fm.Row(row)
		if err != nil {
			return now, err
		}
		if len(value) != len(dst) {
			return now, fmt.Errorf("core: update row size %d, want %d", len(value), len(dst))
		}
		f := fmRows{b: st.fm.Bytes(), owned: st.fmOwned}
		f.put(row*int64(len(dst)), value)
		if f.owned != st.fmOwned {
			own, err := embedding.FromBytes(st.fm.Spec(), f.b)
			if err != nil {
				return now, err
			}
			st.fm, st.fmOwned = own, true
		}
		if st.cache != nil {
			// A swappable table keeps its (possibly still warm) SM-stint
			// cache shard coherent with the FM copy, so a later demotion
			// cannot resurface a stale cached row.
			st.cache.Put(cache.Key{Table: int32(st.spec.ID), Row: row}, value)
		}
		return s.demoteWriteThrough(now, st, row, value)
	}
	if row < 0 || row >= st.spec.Rows {
		// Unchecked, a row past the end would land in whatever follows the
		// table's stripe on the device.
		return now, fmt.Errorf("core: update row %d of table %d out of range [0, %d)", row, table, st.spec.Rows)
	}
	if st.mapper != nil {
		m := st.mapper[row]
		if m < 0 {
			return now, fmt.Errorf("core: cannot update pruned row %d of table %d", row, table)
		}
		row = int64(m)
	}
	if len(value) != st.rowBytes {
		return now, fmt.Errorf("core: update row size %d, want %d", len(value), st.rowBytes)
	}
	key := cache.Key{Table: int32(st.spec.ID), Row: row}
	if f, off := st.fmRangeOf(row); f != nil {
		// The row's range is FM-resident: the FM copy is its source of
		// truth (a later range demotion rewrites SM from it), so update it
		// like an FM-direct table — a changing write copies the range for
		// this store first — and keep any cached copy coherent so the SM
		// path cannot resurface a stale row after the demotion.
		f.put(off, value)
		if st.cache != nil {
			st.cache.Put(key, value)
		}
		return s.demoteWriteThrough(now, st, row, value)
	}
	if mode == UpdateOnline && st.cache != nil {
		// Cache-first: readers see the new value immediately; SM is
		// refreshed by FlushUpdates. Tables without a cache shard
		// (PerTableCache deny-list) fall through to the direct SM write.
		st.cache.PutDirty(key, value)
		return now, nil
	}
	dev, off := s.smLocation(st, row)
	done, err := s.devices[dev].Write(now, value, off)
	if err != nil {
		return now, err
	}
	// Invalidate (overwrite) any stale cached copy.
	if st.cache != nil {
		st.cache.Put(key, value)
	}
	if p := st.migIn; p != nil && row >= p.begin && row < p.next {
		// An in-flight promotion already read this row's old bytes off
		// SM; patch its FM destination so Commit cannot install the stale
		// value behind the (non-dirty) cache entry.
		p.putRow(row, value)
	}
	return done, nil
}

// demoteWriteThrough keeps an in-flight demotion coherent with an update
// to an FM-resident row: chunks issued before the update carried the old
// bytes to SM, and Commit would drop the fresh FM copy behind a merely
// evictable cache entry — so the row is re-written to SM at now. Chunks
// not yet issued read the (live) FM source and need nothing.
func (s *Store) demoteWriteThrough(now simclock.Time, st *tableState, row int64, value []byte) (simclock.Time, error) {
	d := st.migOut
	if d == nil || row < d.begin || row >= d.next {
		return now, nil
	}
	dev, off := s.smLocation(st, row)
	return s.devices[dev].Write(now, value, off)
}

// FlushUpdates drains dirty cache entries to SM (the §A.3 write-back path)
// and returns the completion time of the last write.
func (s *Store) FlushUpdates(now simclock.Time) (simclock.Time, error) {
	done := now
	var firstErr error
	s.rowCache.FlushDirty(func(k cache.Key, v []byte) {
		st := s.tableByID(k.Table)
		if st == nil || st.target != placement.SM {
			return
		}
		dev, off := s.smLocation(st, k.Row)
		t, err := s.devices[dev].Write(now, v, off)
		if err != nil && firstErr == nil {
			firstErr = err
			return
		}
		if t > done {
			done = t
		}
	})
	return done, firstErr
}

func (s *Store) tableByID(id int32) *tableState {
	for _, st := range s.tables {
		if int32(st.spec.ID) == id {
			return st
		}
	}
	return nil
}

// UpdateIntervalLimit returns the minimum model-update interval the SM
// endurance supports (§3's endurance equation) given the store's devices
// and the SM-resident model bytes.
func (s *Store) UpdateIntervalLimit() time.Duration {
	var modelBytes, capBytes int64
	for _, st := range s.tables {
		if st.target == placement.SM {
			modelBytes += st.storedSpec.SizeBytes()
		}
	}
	for _, d := range s.devices {
		capBytes += d.Capacity()
	}
	return blockdev.UpdateInterval(modelBytes, capBytes, blockdev.Spec(s.cfg.SMTech).EnduranceDWPD)
}

// WarmupOverprovision computes §A.4's capacity over-provisioning needed to
// offset post-update cold-cache slowdown: (r·w)/(p·t), where r is the
// fraction of hosts updating at a time, w the warmup duration, p the
// relative performance during warmup, and t the update interval.
func WarmupOverprovision(r, p float64, warmup, interval time.Duration) float64 {
	if p <= 0 || interval <= 0 {
		return 0
	}
	return (r * warmup.Seconds()) / (p * interval.Seconds())
}
