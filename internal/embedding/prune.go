package embedding

import (
	"math"

	"sdm/internal/quant"
)

// PrunedRow marks an index that was removed by pruning in a mapper tensor.
const PrunedRow = int32(-1)

// Pruned is a post-training pruned table (§4.5): a dense table holding only
// the surviving rows, plus a mapping tensor from unpruned index space to
// pruned index space (PrunedRow for removed rows). The paper stores the
// dense table on SM and keeps the mapper in FM; the mapper's FM footprint
// (NumRow(unpruned) × 4 B) is what de-pruning reclaims for cache.
type Pruned struct {
	// UnprunedSpec is the original table shape.
	UnprunedSpec Spec
	// Mapper maps unpruned row index → dense row index or PrunedRow.
	Mapper []int32
	// Dense holds only surviving rows (Spec().Rows == number kept).
	Dense *Table
}

// MapperBytes returns the FM footprint of the mapping tensor.
func (p *Pruned) MapperBytes() int64 { return int64(len(p.Mapper)) * 4 }

// PruneZeroRows removes rows whose dequantized L∞ norm is ≤ eps — the
// paper's "embedding rows with values very close to 0 are heuristically
// removed". It returns the pruned representation.
func PruneZeroRows(t *Table, eps float32) (*Pruned, error) {
	spec := t.Spec()
	mapper := make([]int32, spec.Rows)
	row := make([]float32, spec.Dim)
	var kept int64
	// First pass: classify rows.
	for r := int64(0); r < spec.Rows; r++ {
		if err := t.DequantizeRow(row, r); err != nil {
			return nil, err
		}
		if maxAbs(row) <= eps {
			mapper[r] = PrunedRow
		} else {
			mapper[r] = int32(kept)
			kept++
		}
	}
	denseSpec := spec
	denseSpec.Rows = kept
	if kept == 0 {
		denseSpec.Rows = 1 // degenerate: keep one zero row
	}
	dense := &Table{spec: denseSpec, data: make([]byte, denseSpec.SizeBytes())}
	rb := int64(spec.RowBytes())
	for r := int64(0); r < spec.Rows; r++ {
		d := mapper[r]
		if d == PrunedRow {
			continue
		}
		src, err := t.Row(r)
		if err != nil {
			return nil, err
		}
		copy(dense.data[int64(d)*rb:(int64(d)+1)*rb], src)
	}
	return &Pruned{UnprunedSpec: spec, Mapper: mapper, Dense: dense}, nil
}

func maxAbs(row []float32) float32 {
	var m float32
	for _, v := range row {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// Deprune materializes the unpruned table (Algorithm 2 of §4.5): a new
// table in the unpruned index space where pruned rows become explicit zero
// rows. The mapper tensor is no longer needed afterwards, freeing
// MapperBytes() of FM for cache at the cost of a larger SM footprint and a
// small number of extra (cold) row accesses.
func (p *Pruned) Deprune() (*Table, error) {
	spec := p.UnprunedSpec
	nt := &Table{spec: spec, data: make([]byte, spec.SizeBytes())}
	rb := int64(spec.RowBytes())
	zero := make([]float32, spec.Dim)
	zeroRow := make([]byte, rb)
	if err := quant.QuantizeRow(zeroRow, zero, spec.QType); err != nil {
		return nil, err
	}
	for r := int64(0); r < spec.Rows; r++ {
		dst := nt.data[r*rb : (r+1)*rb]
		d := p.Mapper[r]
		if d == PrunedRow {
			copy(dst, zeroRow)
			continue
		}
		src, err := p.Dense.Row(int64(d))
		if err != nil {
			return nil, err
		}
		copy(dst, src)
	}
	return nt, nil
}
