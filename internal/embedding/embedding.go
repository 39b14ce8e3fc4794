// Package embedding implements DLRM embedding tables (§2.1): storage of
// row-wise quantized rows, SparseLengthsSum pooling, post-training pruning
// with index-mapping tensors, de-pruning at load time (§4.5, Algorithm 2)
// and de-quantization at load time (§A.5).
package embedding

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"sdm/internal/quant"
	"sdm/internal/xrand"
)

// Kind distinguishes user and item tables; the paper's central observation
// (§2.2) is that user tables hold most capacity but need far less bandwidth
// because the user side is looked up once per query while items are batched.
type Kind int

// Table kinds.
const (
	User Kind = iota + 1
	Item
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case User:
		return "user"
	case Item:
		return "item"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes one embedding table.
type Spec struct {
	ID   int
	Name string
	// Rows is the (unpruned) row count, i.e. the categorical cardinality.
	Rows int64
	// Dim is the embedding dimension in elements.
	Dim int
	// QType is the storage encoding.
	QType quant.Type
	Kind  Kind
	// PoolingFactor is the average number of rows looked up per query
	// (p_i in Eq. 1).
	PoolingFactor float64
	// Alpha is the Zipf skew of accesses to this table (§4.2).
	Alpha float64
	// ZeroFrac is the fraction of rows that are ~0 and prunable (§4.5).
	ZeroFrac float64
}

// RowBytes returns the stored size of one row.
func (s Spec) RowBytes() int { return quant.RowBytes(s.QType, s.Dim) }

// SizeBytes returns the stored size of the whole (unpruned) table.
func (s Spec) SizeBytes() int64 { return s.Rows * int64(s.RowBytes()) }

// Validate reports configuration errors.
func (s Spec) Validate() error {
	switch {
	case s.Rows <= 0:
		return fmt.Errorf("embedding: table %d: rows must be > 0", s.ID)
	case s.Dim <= 0:
		return fmt.Errorf("embedding: table %d: dim must be > 0", s.ID)
	case s.QType != quant.Int8 && s.QType != quant.FP32:
		return fmt.Errorf("embedding: table %d: QType must be int8 or fp32, got %v", s.ID, s.QType)
	case s.Dim > math.MaxInt32/4 || s.Rows > math.MaxInt64/int64(s.RowBytes()): // SizeBytes would wrap
		return fmt.Errorf("embedding: table %d: Rows × row bytes (%d × %d) exceeds MaxInt64", s.ID, s.Rows, s.RowBytes())
	case s.Kind == 0:
		return fmt.Errorf("embedding: table %d: kind unset", s.ID)
	case !(s.PoolingFactor >= 0) || math.IsInf(s.PoolingFactor, 0):
		return fmt.Errorf("embedding: table %d: PoolingFactor must be finite and >= 0, got %v", s.ID, s.PoolingFactor)
	case math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0): // negative is legal: uniform
		return fmt.Errorf("embedding: table %d: Alpha must be finite, got %v", s.ID, s.Alpha)
	case !(s.ZeroFrac >= 0 && s.ZeroFrac <= 1):
		return fmt.Errorf("embedding: table %d: ZeroFrac must be in [0, 1], got %v", s.ID, s.ZeroFrac)
	}
	return nil
}

// Table is a materialized embedding table: Rows quantized rows of RowBytes
// each, stored contiguously.
type Table struct {
	spec Spec
	data []byte
}

// ErrRowRange is returned for out-of-range row indices.
var ErrRowRange = errors.New("embedding: row index out of range")

// syntheticChunkRows is the unit of NewSynthetic's parallel fill.
const syntheticChunkRows = 4096

// NewSynthetic builds a table with deterministic synthetic content: row r
// is a seeded draw keyed by (seed, table ID, r) — zero for a ZeroFrac
// fraction of rows, so pruning has something to remove, N(0, 0.5²) ziggurat
// pairs otherwise (FillSyntheticRow). Determinism lets tests compare the SDM
// path against a flat oracle. Every row is seeded independently, so up to
// GOMAXPROCS workers — the caller is one — fill interleaved row chunks, and
// the bytes do not depend on how many there are.
func NewSynthetic(spec Spec, seed uint64) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Table{spec: spec, data: make([]byte, spec.SizeBytes())}
	rb := int64(spec.RowBytes())
	chunks := int((spec.Rows + syntheticChunkRows - 1) / syntheticChunkRows)
	workers := min(runtime.GOMAXPROCS(0), chunks)
	errs := make([]error, chunks)
	fill := func(w int) {
		row := make([]float32, spec.Dim)
		for c := w; c < chunks; c += workers {
			lo := int64(c) * syntheticChunkRows
			for r := lo; r < min(lo+syntheticChunkRows, spec.Rows) && errs[c] == nil; r++ {
				FillSyntheticRow(row, seed, spec.ID, r, spec.ZeroFrac)
				errs[c] = quant.QuantizeRow(t.data[r*rb:(r+1)*rb], row, spec.QType)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(w)
		}()
	}
	fill(0)
	wg.Wait()
	for _, err := range errs { // the lowest failing chunk's, at any worker count
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FillSyntheticRow writes the deterministic synthetic values for row r of
// table tableID into dst, from an RNG seeded by (seed, tableID, r): zero if
// its first Float64 falls below zeroFrac, else N(0, 0.5²) elements from one
// NormRow call: ziggurat pairs, one Uint64 per pair outside the sampler's
// rare slow paths (an odd-length row drops its last pair's second value).
func FillSyntheticRow(dst []float32, seed uint64, tableID int, r int64, zeroFrac float64) {
	rng := xrand.New(seed ^ uint64(tableID)<<32 ^ uint64(r)*0x9e3779b97f4a7c15)
	if zeroFrac > 0 && rng.Float64() < zeroFrac {
		clear(dst)
		return
	}
	rng.NormRow(dst, 0, 0.5)
}

// FromBytes wraps raw stored rows (quantized, back to back) as a Table.
// data must be exactly spec.SizeBytes() long; the table takes ownership.
func FromBytes(spec Spec, data []byte) (*Table, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != spec.SizeBytes() {
		return nil, fmt.Errorf("embedding: table %d: %d data bytes for %d-byte spec",
			spec.ID, len(data), spec.SizeBytes())
	}
	return &Table{spec: spec, data: data}, nil
}

// Spec returns the table spec.
func (t *Table) Spec() Spec { return t.spec }

// Bytes returns the raw stored bytes (rows back to back).
func (t *Table) Bytes() []byte { return t.data }

// Row returns the stored bytes of row i.
func (t *Table) Row(i int64) ([]byte, error) {
	if i < 0 || i >= t.spec.Rows {
		return nil, fmt.Errorf("%w: %d of %d", ErrRowRange, i, t.spec.Rows)
	}
	rb := int64(t.spec.RowBytes())
	return t.data[i*rb : (i+1)*rb], nil
}

// RowOffset returns the byte offset of row i within Bytes().
func (t *Table) RowOffset(i int64) int64 { return i * int64(t.spec.RowBytes()) }

// DequantizeRow decodes row i into dst (len must be Dim).
func (t *Table) DequantizeRow(dst []float32, i int64) error {
	row, err := t.Row(i)
	if err != nil {
		return err
	}
	return quant.DequantizeRow(dst, row, t.spec.QType)
}

// Pool computes SparseLengthsSum over indices into out (len must be Dim):
// out = Σ dequant(row[idx]). This is the flat-memory oracle path used by
// tests and by tables placed directly in FM. The rows go through one
// quant.Pooler, so the sum is bit-identical to one AccumulateRow per index.
func (t *Table) Pool(out []float32, indices []int64) error {
	clear(out)
	rb := int64(t.spec.RowBytes())
	p := quant.NewPooler(out, t.spec.QType)
	for _, idx := range indices {
		if idx < 0 || idx >= t.spec.Rows {
			return fmt.Errorf("%w: %d of %d", ErrRowRange, idx, t.spec.Rows)
		}
		if err := p.Add(t.data[idx*rb : (idx+1)*rb]); err != nil {
			return err
		}
	}
	return p.Flush()
}

// Dequantize returns a copy of the table re-encoded as FP32 (§A.5,
// de-quantization at load time). The returned table's rows are Dim*4 bytes.
func (t *Table) Dequantize() (*Table, error) {
	if t.spec.QType == quant.FP32 {
		cp := &Table{spec: t.spec, data: make([]byte, len(t.data))}
		copy(cp.data, t.data)
		return cp, nil
	}
	spec := t.spec
	spec.QType = quant.FP32
	out := &Table{spec: spec, data: make([]byte, spec.SizeBytes())}
	row := make([]float32, t.spec.Dim)
	rb := spec.RowBytes()
	for r := int64(0); r < t.spec.Rows; r++ {
		if err := t.DequantizeRow(row, r); err != nil {
			return nil, err
		}
		if err := quant.QuantizeRow(out.data[r*int64(rb):(r+1)*int64(rb)], row, quant.FP32); err != nil {
			return nil, err
		}
	}
	return out, nil
}
