// Runtime adaptive-tiering support: per-table telemetry export and the
// FM↔SM migration primitives the adapt subsystem drives. A store opened
// with Config.ReserveSM provisions every SM-eligible table for swaps
// (reserved stripe + cache shard); migrations then move a table's rows
// through the same rings and devices foreground queries use, so migration
// IO is accounted in virtual time and visibly competes with serving
// traffic. Pacing (the bandwidth cap) is the caller's job: the engine
// exposes chunked Steps, the adapt migrator decides when to issue them.

package core

import (
	"fmt"

	"sdm/internal/blockdev"
	"sdm/internal/cache"
	"sdm/internal/placement"
	"sdm/internal/simclock"
)

// TableStat is one table's live runtime view: current placement plus the
// counters accumulated since load. The query engine folds counters in
// operator order, so every field is parallelism-invariant.
type TableStat struct {
	Table        int
	Target       placement.Target
	Swappable    bool
	CacheEnabled bool
	// StoredBytes is the table's stored footprint (the bytes a whole-table
	// migration moves); RowBytes the stored row size.
	StoredBytes int64
	RowBytes    int
	// RangeRows is the row-range width of a range-provisioned table (0
	// otherwise) and FMRangeBytes the stored bytes currently FM-resident
	// through promoted ranges.
	RangeRows    int64
	FMRangeBytes int64

	Lookups       uint64
	SMReads       uint64
	FMDirectReads uint64
	RangeFMReads  uint64
	CacheHits     uint64
	CacheMisses   uint64
	PooledHits    uint64
	PooledMisses  uint64

	// DemoteWriteBytes counts the SM media bytes demotions of this table
	// have written (as chunks issue, committed or not) — the per-table
	// endurance ledger. The wear-aware placement term does not read it: it
	// scores a candidate's footprint (placement.RangeItem.DemoteBytes).
	DemoteWriteBytes uint64
}

// TableStats appends one TableStat per table (in table order) to dst and
// returns it — the telemetry feed of the adapt subsystem. Counters are
// cumulative; samplers subtract consecutive snapshots.
func (s *Store) TableStats(dst []TableStat) []TableStat {
	dst = dst[:0]
	for i, st := range s.tables {
		ts := TableStat{
			Table:            i,
			Target:           st.target,
			Swappable:        st.swappable,
			CacheEnabled:     st.cacheEnabled,
			StoredBytes:      st.storedSpec.SizeBytes(),
			RowBytes:         st.rowBytes,
			RangeRows:        st.rangeRows,
			Lookups:          st.runtime.Lookups,
			SMReads:          st.runtime.SMReads,
			FMDirectReads:    st.runtime.FMDirectReads,
			RangeFMReads:     st.runtime.RangeFMReads,
			PooledHits:       st.runtime.PooledHits,
			PooledMisses:     st.runtime.PooledMisses,
			DemoteWriteBytes: st.runtime.DemoteWriteBytes,
		}
		if st.target == placement.SM {
			ts.FMRangeBytes = st.fmBytes
		}
		if st.cache != nil {
			cs := st.cache.Stats()
			ts.CacheHits, ts.CacheMisses = cs.Hits, cs.Misses
		}
		dst = append(dst, ts)
	}
	return dst
}

// Migration is one in-progress FM↔SM move of a range-aligned row window
// (BeginPromoteRange/BeginDemoteRange), or of a whole table: the [0, rows)
// window, whose Commit also flips the table's target
// (BeginPromote/BeginDemote). The caller issues chunks with Step
// at virtual times of its choosing (that is where a bandwidth cap lives),
// then finalizes the placement swap with Commit once the last chunk's IO
// has completed on the virtual timeline; Abort renounces a migration whose
// Step failed mid-flight, so a later Commit cannot install a half-built
// copy. Migrations are not concurrency-safe and must be driven from the
// same goroutine as the store's queries.
type Migration struct {
	s  *Store
	st *tableState

	table     int
	promote   bool // SM→FM reads; false = FM→SM writes
	whole     bool // a whole-table move: Commit flips the target
	chunkRows int64

	// [begin, end) is the row window being moved; next is the first row of
	// the next chunk.
	begin, end, next int64

	// A promotion gathers rows off the devices into the FM ranges Commit
	// installs, one per covered range (ranges[0] is range begin/rangeRows),
	// each a view of the loaded table until a write changes it.
	ranges []fmRows

	issuedBytes int64
	done        simclock.Time
	finished    bool
	committed   bool
	aborted     bool
}

// migrationState validates a swap request and returns the table state.
func (s *Store) migrationState(table int, want placement.Target) (*tableState, error) {
	if table < 0 || table >= len(s.tables) {
		return nil, fmt.Errorf("core: migrate table %d of %d", table, len(s.tables))
	}
	st := s.tables[table]
	if !st.swappable {
		return nil, fmt.Errorf("core: table %d is not swappable (store not opened with ReserveSM, or table SM-ineligible)", table)
	}
	if st.target != want {
		return nil, fmt.Errorf("core: table %d is %s-resident, want %s", table, st.target, want)
	}
	return st, nil
}

// newMigration claims st's in-flight slot for a move of rows [lo, hi) in
// chunks of chunkBytes (<= 0 selects 256 KiB, at least one row).
func (s *Store) newMigration(st *tableState, table int, promote, whole bool, lo, hi int64, chunkBytes int) (*Migration, error) {
	slot, dir := &st.migOut, "demotion"
	if promote {
		slot, dir = &st.migIn, "promotion"
	}
	if *slot != nil {
		return nil, fmt.Errorf("core: table %d already has a %s in flight", table, dir)
	}
	if chunkBytes <= 0 {
		chunkBytes = 256 << 10
	}
	m := &Migration{
		s: s, st: st, table: table, promote: promote, whole: whole,
		chunkRows: max(int64(chunkBytes)/int64(st.rowBytes), 1),
		begin:     lo, end: hi, next: lo,
	}
	if promote {
		m.ranges = st.loadedRanges(s.loadedBytes(st), lo, hi)
	}
	*slot = m
	return m, nil
}

// BeginPromote starts migrating an SM-resident table into FM: chunks read
// the table's stripes back through the rings (stealing device channels
// and bus time from foreground queries), and Commit installs every range of
// the table (views of the loaded one, unless a write changed a byte) and
// makes it FM-target. chunkBytes is the payload of one Step (<= 0 selects
// 256 KiB).
func (s *Store) BeginPromote(table int, chunkBytes int) (*Migration, error) {
	st, err := s.migrationState(table, placement.SM)
	if err != nil {
		return nil, err
	}
	if st.fmBytes > 0 {
		// A whole-table promotion would read the FM copy from the SM
		// stripe, which is stale for rows updated while range-resident;
		// the ranges must be demoted (rewriting SM) first.
		return nil, fmt.Errorf("core: table %d has FM-resident row ranges; demote them before a whole-table promotion", table)
	}
	return s.newMigration(st, table, true, true, 0, st.rows, chunkBytes)
}

// BeginDemote starts migrating an FM-resident table out to its reserved
// SM stripe: chunks write through the rings (program latency + endurance
// wear), and Commit drops the FM ranges. The table's cache shard is kept —
// it was held coherent while the table was FM-resident, so any entries from
// an earlier SM stint stay valid.
func (s *Store) BeginDemote(table int, chunkBytes int) (*Migration, error) {
	st, err := s.migrationState(table, placement.FM)
	if err != nil {
		return nil, err
	}
	return s.newMigration(st, table, false, true, 0, st.rows, chunkBytes)
}

// Finished reports whether every chunk has been issued.
func (m *Migration) Finished() bool { return m.finished }

// Done returns the completion time of the slowest chunk issued so far.
func (m *Migration) Done() simclock.Time { return m.done }

// BytesMoved returns the migration bytes issued so far.
func (m *Migration) BytesMoved() int64 { return m.issuedBytes }

// ceilRows returns the smallest j >= 0 with j*n >= a.
func ceilRows(a, n int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + n - 1) / n
}

// Step issues the next chunk at virtual time now: one ring submission per
// device covering the chunk's share of the stripe. It returns the bytes
// issued and the chunk's IO completion time. After the final chunk,
// Finished reports true; Commit may then be called once the caller's
// virtual time passes Done.
func (m *Migration) Step(now simclock.Time) (int, simclock.Time, error) {
	if m.aborted {
		return 0, m.done, fmt.Errorf("core: step of aborted migration (table %d)", m.table)
	}
	if m.finished {
		return 0, m.done, nil
	}
	n := int64(m.s.cfg.NumDevices)
	r0, r1 := m.next, min(m.next+m.chunkRows, m.end)
	chunkDone := now
	bytes := 0
	for d := int64(0); d < n; d++ {
		// Stored indices j on device d whose global row j*n+d falls in
		// [r0, r1).
		lo, hi := ceilRows(r0-d, n), ceilRows(r1-d, n)
		if hi <= lo {
			continue
		}
		done, err := m.moveSpan(now, d, lo, hi)
		if err != nil {
			// The earlier devices' share of the chunk was moved (and,
			// demoting, wore the media): it counts as issued.
			m.issuedBytes += int64(bytes)
			return bytes, chunkDone, fmt.Errorf("core: migrate table %d (promote=%t): %w", m.table, m.promote, err)
		}
		chunkDone = max(chunkDone, done)
		bytes += int(hi-lo) * m.st.rowBytes
	}
	m.issuedBytes += int64(bytes)
	m.done = max(m.done, chunkDone)
	m.next, m.finished = r1, r1 >= m.end
	return bytes, m.done, nil
}

// moveSpan moves stored rows [lo, hi) of device d's stripe share at virtual
// time now and returns the IO's completion. The span is booked first, one
// smIO, so a closed or out-of-range device counts the failed submission;
// then each row moves between the media (addressed by stripe and row, like
// the query path's reads) and its FM bytes; only changed bytes are copied.
func (m *Migration) moveSpan(now simclock.Time, d, lo, hi int64) (simclock.Time, error) {
	s, st, dev := m.s, m.st, m.s.devices[d]
	n := int64(s.cfg.NumDevices)
	done, err := s.smIO(now, st, int(d), lo, hi-lo, !m.promote)
	if err != nil {
		return done, err
	}
	if m.promote {
		for j := lo; j < hi; j++ {
			row, err := dev.Row(st.stripe, j)
			if err != nil {
				return done, err
			}
			m.putRow(j*n+d, row)
		}
		return done, nil
	}
	for j := lo; j < hi; j++ {
		if err := dev.PokeRow(st.stripe, j, st.fmRow(j*n+d)); err != nil {
			return done, err
		}
	}
	span := uint64((hi - lo) * int64(st.rowBytes))
	st.runtime.DemoteWriteBytes += span
	s.stats.DemoteWriteBytes += span
	return done, nil
}

// putRow writes v as global row's FM bytes during a promotion — the one way
// a promotion's rows are written.
func (m *Migration) putRow(row int64, v []byte) {
	w := m.st.rangeRows
	m.ranges[(row-m.begin)/w].put((row%w)*int64(m.st.rowBytes), v)
}

// Commit finalizes the placement swap: promotions install the FM ranges
// gathered from SM, demotions drop them, and a whole-table move flips the
// table's target.
// It must only be called after every chunk has been issued (Finished) and
// the caller's virtual time has passed Done — data would otherwise still
// be "in flight" on the timeline.
func (m *Migration) Commit() error {
	if m.aborted {
		return fmt.Errorf("core: commit of aborted migration (table %d)", m.table)
	}
	if !m.finished {
		return fmt.Errorf("core: commit of unfinished migration (table %d, %d/%d rows)", m.table, m.next-m.begin, m.end-m.begin)
	}
	if m.committed {
		return nil
	}
	st := m.st
	if m.promote {
		if st.cache != nil {
			// Online updates live cache-first as dirty entries (§A.3), so
			// for those rows the cache — not SM — holds the freshest copy.
			// Fold the in-window ones into the FM image; clearing their
			// dirty flags is correct because the FM copy becomes those
			// rows' source of truth, and a later demotion rewrites their
			// SM stripe share wholesale. Dirty entries outside the window
			// keep serving cache-first, so they are re-marked dirty.
			m.foldDirty()
		}
		m.installRanges()
		if m.whole {
			st.target = placement.FM
		}
		m.s.stats.MigratedSMToFMBytes += uint64(m.issuedBytes)
	} else {
		m.releaseRanges()
		if m.whole {
			st.target = placement.SM
		}
		m.s.stats.MigratedFMToSMBytes += uint64(m.issuedBytes)
	}
	m.s.stats.Migrations++
	if !m.whole {
		m.s.stats.RangeMigrations++
	}
	m.committed = true
	m.untrack()
	return nil
}

// untrack releases the table's in-flight slot for this migration.
func (m *Migration) untrack() {
	if m.st.migIn == m {
		m.st.migIn = nil
	}
	if m.st.migOut == m {
		m.st.migOut = nil
	}
}

// foldDirty folds dirty cache entries inside the migration window into the
// promoted FM image and re-marks the out-of-window ones dirty (a
// whole-table window keeps the original drain-everything behavior).
func (m *Migration) foldDirty() {
	st := m.st
	type dirtyRow struct {
		k cache.Key
		v []byte
	}
	var keep []dirtyRow
	st.cache.FlushDirty(func(k cache.Key, v []byte) {
		if k.Row >= m.begin && k.Row < m.end {
			m.putRow(k.Row, v)
			return
		}
		keep = append(keep, dirtyRow{k: k, v: append([]byte(nil), v...)})
	})
	for _, d := range keep {
		st.cache.PutDirty(d.k, d.v)
	}
}

// installRanges makes the promoted window's rows the table's FM-resident
// ranges.
func (m *Migration) installRanges() {
	st := m.st
	if st.fm == nil {
		st.fm = make([]fmRows, st.numRanges())
	}
	first := int(m.begin / st.rangeRows)
	for i, f := range m.ranges {
		st.fm[first+i] = f
		st.fmBytes += int64(len(f.b))
	}
	m.ranges = nil
}

// releaseRanges takes the demoted window out of FM residency.
func (m *Migration) releaseRanges() {
	st := m.st
	for r := m.begin / st.rangeRows; r*st.rangeRows < m.end; r++ {
		st.fmBytes -= int64(len(st.fm[r].b))
		st.fm[r] = fmRows{}
	}
}

// Aborted reports whether the migration was abandoned.
func (m *Migration) Aborted() bool { return m.aborted }

// Abort renounces an in-flight migration after a Step error (or a caller
// change of mind): Step and Commit fail afterwards, so a half-built FM
// image can never be installed. Nothing physical needs rolling back — an
// aborted promotion drops its rows, and an aborted demotion's partially
// rewritten SM window is unreachable (the rows remain FM-resident) until a
// later demotion rewrites it from its first row. Safe to call more than
// once; a no-op after Commit.
func (m *Migration) Abort() {
	if m.committed {
		return
	}
	m.aborted = true
	m.ranges = nil
	m.untrack()
}

// WearInfo summarizes the store's SM endurance state: the §3 DWPD rating
// applied to the attached devices, their lifetime media writes, and the
// total writes the rating allows over blockdev.RatedLifeYears. It is the
// input the wear-aware placement term and fleet wear observability share.
type WearInfo struct {
	Tech blockdev.Technology
	// DWPD is the technology's drive-writes-per-day rating.
	DWPD float64
	// CapacityBytes is the total SM capacity across devices.
	CapacityBytes int64
	// BytesWritten is the lifetime media bytes written across devices
	// (model load included — load writes wear the flash too).
	BytesWritten uint64
	// RatedLifeBytes is the total writes the DWPD rating allows over the
	// rated life (0 for unrated technologies).
	RatedLifeBytes int64
}

// LifeFrac returns the remaining rated-life fraction in [0, 1] (1 when
// the technology carries no rating — nothing to conserve).
func (w WearInfo) LifeFrac() float64 {
	if w.RatedLifeBytes <= 0 {
		return 1
	}
	rem := 1 - float64(w.BytesWritten)/float64(w.RatedLifeBytes)
	if rem < 0 {
		return 0
	}
	return rem
}

// DailyWriteBudgetBytes returns the bytes/day of SM writes the endurance
// model currently allows: the DWPD rating scaled by the remaining rated
// life, so a worn device earns a proportionally smaller budget.
func (w WearInfo) DailyWriteBudgetBytes() float64 {
	if w.DWPD <= 0 || w.CapacityBytes <= 0 {
		return 0
	}
	return w.DWPD * float64(w.CapacityBytes) * w.LifeFrac()
}

// DWPDUtil returns the utilization of the endurance rating implied by a
// sustained write rate of bytesPerDay (1.0 = writing exactly at the
// rated DWPD).
func (w WearInfo) DWPDUtil(bytesPerDay float64) float64 {
	if w.DWPD <= 0 || w.CapacityBytes <= 0 {
		return 0
	}
	return bytesPerDay / (w.DWPD * float64(w.CapacityBytes))
}

// Wear returns the store's SM endurance state, aggregated across its
// devices.
func (s *Store) Wear() WearInfo {
	spec := blockdev.Spec(s.cfg.SMTech)
	w := WearInfo{Tech: s.cfg.SMTech, DWPD: spec.EnduranceDWPD}
	for _, d := range s.devices {
		w.CapacityBytes += d.Capacity()
		w.BytesWritten += d.Stats().BytesWritten
		w.RatedLifeBytes += spec.RatedLifeBytes(d.Capacity())
	}
	return w
}
