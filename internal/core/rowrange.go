// Row-range residency: the partial-table migration primitives. Whole-table
// migration (adaptive.go) wastes FM exactly where the paper says it is
// scarcest — row popularity within a table is Zipf-skewed, so most bytes of
// an FM-resident table are cold. A swappable table's rows therefore
// partition into fixed-width ranges (Config.MigrationRangeBytes); while the
// table's target stays SM, individual [lo, hi) row windows can be promoted
// into FM and demoted back through the same chunked, ring-accounted
// Migration machinery, and per-range lookup counters (folded in operator
// order, so parallelism-invariant) give the adapt subsystem the demand
// densities its range-granular knapsack ranks. A promoted range reads the
// loaded table in place until a write changes it (fmRows).

package core

import (
	"bytes"
	"fmt"

	"sdm/internal/placement"
)

// numRanges returns how many row ranges the table partitions into (0 for
// tables not provisioned for range migration).
func (st *tableState) numRanges() int {
	if st.rangeRows <= 0 {
		return 0
	}
	return int((st.rows + st.rangeRows - 1) / st.rangeRows)
}

// rangeBounds returns the row window [lo, hi) of range r.
func (st *tableState) rangeBounds(r int) (lo, hi int64) {
	lo = int64(r) * st.rangeRows
	hi = lo + st.rangeRows
	if hi > st.rows {
		hi = st.rows
	}
	return lo, hi
}

// fmRows is promoted rows — one row range, or a whole table in flight: a
// read-only view of the loaded table until put changes a byte and gives the
// store its own copy, so a clean promotion copies nothing.
type fmRows struct {
	b     []byte
	owned bool
}

// put writes v at off, cloning a view first if v changes its bytes. A clean
// device lends the view's own row (Device.Row), so bytes.Equal returns at
// its pointer check: O(1) per clean row.
func (f *fmRows) put(off int64, v []byte) {
	end := off + int64(len(v))
	if bytes.Equal(f.b[off:end], v) {
		return
	}
	if !f.owned {
		f.b, f.owned = bytes.Clone(f.b), true
	}
	copy(f.b[off:end], v)
}

// loadedBytes returns st's loaded table, which its load stripes read: the
// stored table itself, as ReserveSM requires identity load transforms.
func (s *Store) loadedBytes(st *tableState) []byte { return s.stripes[0][st.stripe].Src }

// fmRangeOf returns row's FM-resident range and the row's byte offset in it,
// nil when the row serves from SM.
func (st *tableState) fmRangeOf(row int64) (*fmRows, int64) {
	if st.fmRange == nil {
		return nil, 0
	}
	f := &st.fmRange[row/st.rangeRows]
	if f.b == nil {
		return nil, 0
	}
	return f, (row % st.rangeRows) * int64(st.rowBytes)
}

// fmRangeRow returns row's stored bytes when its range is FM-resident,
// nil when the row serves from SM.
func (st *tableState) fmRangeRow(row int64) []byte {
	f, off := st.fmRangeOf(row)
	if f == nil {
		return nil
	}
	return f.b[off : off+int64(st.rowBytes)]
}

// RangeStat is one row range's live runtime view: its geometry, current
// residency and the cumulative lookups it received. Like TableStat, the
// counters are folded in operator order and therefore identical at any
// engine parallelism; samplers subtract consecutive snapshots.
type RangeStat struct {
	Table int
	Range int
	// Rows and Bytes are the range's row count and stored footprint (the
	// bytes a range migration moves).
	Rows  int64
	Bytes int64
	// FMResident reports whether the range currently serves from FM. It
	// is false while the whole table is FM-resident (TableStat.Target
	// tracks whole-table placement).
	FMResident bool
	// Lookups counts row lookups that landed in this range while the
	// table was SM-target (whole-table FM serving bypasses range
	// accounting).
	Lookups uint64
}

// RangeStats appends one RangeStat per row range of every range-managed
// (swappable) table, in (table, range) order, and returns dst — the
// range-granular telemetry feed of the adapt subsystem.
func (s *Store) RangeStats(dst []RangeStat) []RangeStat {
	dst = dst[:0]
	for i, st := range s.tables {
		rb := int64(st.rowBytes)
		for r := range st.rangeLookups {
			lo, hi := st.rangeBounds(r)
			dst = append(dst, RangeStat{
				Table:      i,
				Range:      r,
				Rows:       hi - lo,
				Bytes:      (hi - lo) * rb,
				FMResident: st.fmRange != nil && st.fmRange[r].b != nil,
				Lookups:    st.rangeLookups[r],
			})
		}
	}
	return dst
}

// RangeRowsOf returns table's row-range width in rows (0 when the table is
// not provisioned for range migration).
func (s *Store) RangeRowsOf(table int) int64 {
	if table < 0 || table >= len(s.tables) {
		return 0
	}
	return s.tables[table].rangeRows
}

// rangeMigrationState validates a range-migration request: the table must
// be swappable and SM-target (whole-table FM residency supersedes ranges),
// the window must be range-aligned, and every covered range must currently
// be resident (demote) or non-resident (promote).
func (s *Store) rangeMigrationState(table int, lo, hi int64, wantResident bool) (*tableState, error) {
	st, err := s.migrationState(table, placement.SM)
	if err != nil {
		return nil, err
	}
	if st.rangeRows <= 0 {
		return nil, fmt.Errorf("core: table %d is not range-provisioned", table)
	}
	if lo < 0 || hi > st.rows || lo >= hi {
		return nil, fmt.Errorf("core: table %d row window [%d, %d) outside [0, %d)", table, lo, hi, st.rows)
	}
	if lo%st.rangeRows != 0 || (hi%st.rangeRows != 0 && hi != st.rows) {
		return nil, fmt.Errorf("core: table %d window [%d, %d) not aligned to %d-row ranges", table, lo, hi, st.rangeRows)
	}
	for r := int(lo / st.rangeRows); r < st.numRanges() && int64(r)*st.rangeRows < hi; r++ {
		resident := st.fmRange != nil && st.fmRange[r].b != nil
		if resident != wantResident {
			return nil, fmt.Errorf("core: table %d range %d is %s-resident", table, r,
				map[bool]string{true: "FM", false: "SM"}[resident])
		}
	}
	return st, nil
}

// BeginPromoteRange starts migrating the row window [lo, hi) of an
// SM-target table into FM: chunks read the window's share of the stripes
// back through the rings (competing with foreground queries for device
// time), and Commit installs the rows as FM-resident ranges — §A.3 online
// updates pending in the cache are folded in, exactly as a whole-table
// promotion does. lo and hi must align to the table's range width. Each
// covered range starts as a view of the loaded table's rows.
func (s *Store) BeginPromoteRange(table int, lo, hi int64, chunkBytes int) (*Migration, error) {
	st, err := s.rangeMigrationState(table, lo, hi, false)
	if err != nil {
		return nil, err
	}
	m, err := s.newMigration(st, table, true, true, lo, hi, chunkBytes)
	if err != nil {
		return nil, err
	}
	src, rb := s.loadedBytes(st), int64(st.rowBytes)
	m.ranges = make([]fmRows, 0, ceilRows(hi-lo, st.rangeRows))
	for rlo := lo; rlo < hi; rlo += st.rangeRows {
		a, b := rlo*rb, min(rlo+st.rangeRows, hi)*rb
		m.ranges = append(m.ranges, fmRows{b: src[a:b:b]})
	}
	return m, nil
}

// BeginDemoteRange starts migrating the FM-resident row window [lo, hi)
// of an SM-target table back to its reserved stripe: chunks write through
// the rings (program latency + endurance wear), and Commit releases the
// FM copies. The table's cache shard keeps any entries from the SM path —
// they were held coherent while the ranges were FM-resident.
func (s *Store) BeginDemoteRange(table int, lo, hi int64, chunkBytes int) (*Migration, error) {
	st, err := s.rangeMigrationState(table, lo, hi, true)
	if err != nil {
		return nil, err
	}
	return s.newMigration(st, table, false, true, lo, hi, chunkBytes)
}

// FMResidentBytes returns the table's bytes currently served from FM:
// the full stored footprint when the table is FM-target, else the bytes
// of its FM-resident ranges.
func (s *Store) FMResidentBytes(table int) int64 {
	if table < 0 || table >= len(s.tables) {
		return 0
	}
	st := s.tables[table]
	if st.target == placement.FM {
		return st.storedSpec.SizeBytes()
	}
	return st.fmRangeBytes
}
