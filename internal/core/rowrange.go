// Row-range residency: a table's FM bytes and the partial-table migration
// primitives. Whole-table migration wastes FM exactly where the paper says it
// is scarcest — row popularity within a table is Zipf-skewed, so most bytes
// of an FM-resident table are cold. A swappable table's rows therefore
// partition into fixed-width ranges (Config.MigrationRangeBytes); while the
// table's target stays SM, individual [lo, hi) row windows can be promoted
// into FM and demoted back through the same chunked, ring-accounted
// Migration machinery, and per-range lookup counters (folded in operator
// order, so parallelism-invariant) give the adapt subsystem the demand
// densities its range-granular knapsack ranks. Every FM byte of a table is a
// resident range (tableState.fm): an FM-target table is all of its ranges,
// and a whole-table migration is the [0, rows) window plus a target flip. A
// resident range reads the loaded table in place until a write changes it
// (fmRows).

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

// fmRows is one FM-resident row range: a read-only view of the loaded table
// until put changes a byte and gives the store its own copy of the range, so
// a clean promotion copies nothing.
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

// loadedRanges returns views of src's rows [lo, hi), one per range they
// cover (one in all for a table without range provisioning).
func (st *tableState) loadedRanges(src []byte, lo, hi int64) []fmRows {
	w, rb := st.rangeRows, int64(st.rowBytes)
	if w <= 0 {
		w = hi - lo
	}
	f := make([]fmRows, 0, ceilRows(hi-lo, w))
	for r := lo; r < hi; r += w {
		a, b := r*rb, min(r+w, hi)*rb
		f = append(f, fmRows{b: src[a:b:b]})
	}
	return f
}

// fmRowsOf returns row's FM-resident range and the row's byte offset in it,
// nil when the row serves from SM. A one-range table needs no division.
func (st *tableState) fmRowsOf(row int64) (*fmRows, int64) {
	var f *fmRows
	switch len(st.fm) {
	case 0:
		return nil, 0
	case 1:
		f = &st.fm[0]
	default:
		f, row = &st.fm[row/st.rangeRows], row%st.rangeRows
	}
	if f.b == nil {
		return nil, 0
	}
	return f, row * int64(st.rowBytes)
}

// fmRow returns row's stored bytes when it is FM-resident, nil when the row
// serves from SM.
func (st *tableState) fmRow(row int64) []byte {
	f, off := st.fmRowsOf(row)
	if f == nil {
		return nil
	}
	return f.b[off : off+int64(st.rowBytes)]
}

// rangeResident reports whether range r of an SM-target table serves from
// FM.
func (st *tableState) rangeResident(r int) bool {
	return st.target == placement.SM && r < len(st.fm) && st.fm[r].b != nil
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
				FMResident: st.rangeResident(r),
				Lookups:    st.rangeLookups[r],
			})
		}
	}
	return dst
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
		resident := st.rangeResident(r)
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
	return s.newMigration(st, table, true, false, lo, hi, chunkBytes)
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
	return s.newMigration(st, table, false, false, lo, hi, chunkBytes)
}

// FMResidentBytes returns the table's bytes currently served from FM: the
// full stored footprint of an FM-target table, else the bytes of its
// FM-resident ranges.
func (s *Store) FMResidentBytes(table int) int64 {
	if table < 0 || table >= len(s.tables) {
		return 0
	}
	return s.tables[table].fmBytes
}
