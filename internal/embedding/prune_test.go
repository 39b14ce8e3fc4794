package embedding

import "testing"

func prunedFixture(t *testing.T) (*Table, *Pruned) {
	t.Helper()
	tb, err := NewSynthetic(smallSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PruneZeroRows(tb, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return tb, p
}

func TestPruneRemovesOnlyZeroRows(t *testing.T) {
	tb, p := prunedFixture(t)
	if kept := p.Dense.Spec().Rows; kept >= tb.Spec().Rows {
		t.Fatalf("pruning kept all %d rows; ZeroFrac rows should go", kept)
	}
	row := make([]float32, tb.Spec().Dim)
	for r := int64(0); r < tb.Spec().Rows; r++ {
		if err := tb.DequantizeRow(row, r); err != nil {
			t.Fatal(err)
		}
		isZero := true
		for _, v := range row {
			if v != 0 {
				isZero = false
				break
			}
		}
		if isZero && p.Mapper[r] != PrunedRow {
			t.Fatalf("zero row %d not pruned", r)
		}
		if !isZero && p.Mapper[r] == PrunedRow {
			t.Fatalf("non-zero row %d was pruned", r)
		}
	}
}

func TestMapperDense(t *testing.T) {
	_, p := prunedFixture(t)
	// Mapper targets must be a 0..kept-1 bijection in order.
	next := int32(0)
	for r, m := range p.Mapper {
		if m == PrunedRow {
			continue
		}
		if m != next {
			t.Fatalf("mapper[%d] = %d, want %d", r, m, next)
		}
		next++
	}
	if kept := p.Dense.Spec().Rows; int64(next) != kept {
		t.Fatalf("kept %d vs mapper %d", kept, next)
	}
	if p.MapperBytes() != int64(len(p.Mapper))*4 {
		t.Fatal("mapper bytes accounting")
	}
}

func TestDepruneRoundTrip(t *testing.T) {
	tb, p := prunedFixture(t)
	dt, err := p.Deprune()
	if err != nil {
		t.Fatal(err)
	}
	if dt.Spec().Rows != tb.Spec().Rows {
		t.Fatalf("depruned rows %d, want %d", dt.Spec().Rows, tb.Spec().Rows)
	}
	// Every row must decode identically to the original (zero rows
	// included — Algorithm 2 materializes explicit zeros).
	a, b := make([]float32, tb.Spec().Dim), make([]float32, tb.Spec().Dim)
	for r := int64(0); r < tb.Spec().Rows; r++ {
		if err := tb.DequantizeRow(a, r); err != nil {
			t.Fatal(err)
		}
		if err := dt.DequantizeRow(b, r); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("deprune row %d element %d: %g vs %g", r, i, b[i], a[i])
			}
		}
	}
	// §4.5: de-pruned SM footprint exceeds the pruned dense table.
	if dt.Spec().SizeBytes() <= p.Dense.Spec().SizeBytes() {
		t.Fatal("deprune must grow the SM footprint")
	}
}

func TestPruneAllZeroTable(t *testing.T) {
	spec := smallSpec()
	spec.ZeroFrac = 1.0
	tb, err := NewSynthetic(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PruneZeroRows(tb, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for r, m := range p.Mapper {
		if m != PrunedRow {
			t.Fatalf("row %d of an all-zero table survived pruning", r)
		}
	}
	// The degenerate dense table keeps one zero row.
	if p.Dense.Spec().Rows != 1 {
		t.Fatalf("all-pruned dense table has %d rows, want 1", p.Dense.Spec().Rows)
	}
	out := make([]float32, spec.Dim)
	if err := p.Dense.DequantizeRow(out, 0); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("the kept row of an all-pruned table should be zero")
		}
	}
}
