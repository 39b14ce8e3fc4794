package core

import (
	"fmt"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
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
	if f, off := st.fmRowsOf(row); f != nil {
		// The row is FM-resident — an FM table's or a promoted range's: the
		// FM copy is its source of truth (a later demotion rewrites SM from
		// it), so it is updated in place, once the store owns its copy of
		// the range (fmRows.put), and any cached copy is kept coherent so
		// the SM path cannot resurface a stale row after the demotion.
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
	done, err := s.writeSM(now, st, row, value)
	if err != nil {
		return now, err
	}
	// Invalidate (overwrite) any stale cached copy.
	if st.cache != nil {
		st.cache.Put(key, value)
	}
	return done, nil
}

// writeSM writes value as row's SM bytes at now: the row's data half by
// (stripe, row), as queries and migrations address it, then the write's
// timing half at the row's device offset. A row an in-flight promotion has
// already read off SM is patched in its FM destination too (putRow books no
// virtual time), so Commit cannot install the stale value behind a clean
// cache entry.
func (s *Store) writeSM(now simclock.Time, st *tableState, row int64, value []byte) (simclock.Time, error) {
	dev, j := s.smRow(st, row)
	if err := s.devices[dev].PokeRow(st.stripe, j, value); err != nil {
		return now, err
	}
	done, err := s.devices[dev].AccountWrite(now, s.smBase(st, dev)+j*int64(st.rowBytes), len(value))
	if err != nil {
		return done, err
	}
	if p := st.migIn; p != nil && row >= p.begin && row < p.next {
		p.putRow(row, value)
	}
	return done, nil
}

// demoteWriteThrough keeps an in-flight demotion coherent with an update
// to an FM-resident row: chunks issued before the update carried the old
// bytes to SM, and Commit would drop the fresh FM copy behind a merely
// evictable cache entry — so the row is re-written to SM at now. Chunks
// not yet issued read the (live) FM source and need nothing. An FM-resident
// row is never in a promotion's window, so writeSM patches no promotion.
func (s *Store) demoteWriteThrough(now simclock.Time, st *tableState, row int64, value []byte) (simclock.Time, error) {
	if d := st.migOut; d == nil || row < d.begin || row >= d.next {
		return now, nil
	}
	return s.writeSM(now, st, row, value)
}

// FlushUpdates drains dirty cache entries to SM (the §A.3 write-back path),
// table by table in store order, and returns the completion time of the
// last write. A table that is not SM-target drops its dirty flags unwritten.
func (s *Store) FlushUpdates(now simclock.Time) (simclock.Time, error) {
	f := &s.flush
	f.now, f.done, f.err = now, now, nil
	if f.fn == nil {
		f.fn = s.flushRow
	}
	for _, st := range s.tables {
		if st.cache != nil {
			f.st = st
			st.cache.FlushDirty(f.fn)
		}
	}
	return f.done, f.err
}

// flushState is FlushUpdates' progress: the table it drains, and when and
// how the write-back ends. fn is flushRow, bound once, so a flush allocates
// nothing.
type flushState struct {
	st        *tableState
	now, done simclock.Time
	err       error
	fn        func(cache.Key, []byte)
}

// flushRow writes one dirty row of the table FlushUpdates drains.
func (s *Store) flushRow(k cache.Key, v []byte) {
	f := &s.flush
	if f.st.target != placement.SM {
		return
	}
	t, err := s.writeSM(f.now, f.st, k.Row, v)
	if err != nil && f.err == nil {
		f.err = err
		return
	}
	f.done = max(f.done, t)
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
