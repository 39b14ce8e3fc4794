package embedding

import (
	"bytes"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"sdm/internal/quant"
	"sdm/internal/xrand"
)

func smallSpec() Spec {
	return Spec{
		ID: 1, Name: "t1", Rows: 200, Dim: 32, QType: quant.Int8,
		Kind: User, PoolingFactor: 8, Alpha: 1.0, ZeroFrac: 0.3,
	}
}

func TestSpecValidate(t *testing.T) {
	good := smallSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{}, // everything zero
		{ID: 1, Rows: 0, Dim: 4, QType: quant.Int8, Kind: User},
		{ID: 1, Rows: 4, Dim: 0, QType: quant.Int8, Kind: User},
		{ID: 1, Rows: 4, Dim: 4, Kind: User},
		{ID: 1, Rows: 4, Dim: 4, QType: quant.FP32 + 1, Kind: User}, // no such encoding
		{ID: 1, Rows: 4, Dim: 4, QType: quant.Int8},
		{ID: 1, Rows: 4, Dim: 4, QType: quant.Int8, Kind: User, PoolingFactor: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	unknown := good
	unknown.QType = quant.FP32 + 1
	if err := unknown.Validate(); err == nil || !strings.Contains(err.Error(), "QType") {
		t.Errorf("unknown encoding: error %v, want one naming QType", err)
	}
	// Non-finite skews and pooling factors are refused by field name (NaN
	// passes any "< 0" check); a negative skew is legal and means uniform.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := good
		s.Alpha = v
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Alpha") {
			t.Errorf("Alpha = %v: error %v, want one naming Alpha", v, err)
		}
		s = good
		s.PoolingFactor = v
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "PoolingFactor") {
			t.Errorf("PoolingFactor = %v: error %v, want one naming PoolingFactor", v, err)
		}
	}
	// A ZeroFrac of NaN would zero no row and one of 2 every row.
	for _, v := range []float64{math.NaN(), -0.5, 2, math.Inf(1)} {
		s := good
		s.ZeroFrac = v
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "ZeroFrac") {
			t.Errorf("ZeroFrac = %v: error %v, want one naming ZeroFrac", v, err)
		}
	}
	// Rows × RowBytes past MaxInt64 wraps SizeBytes: 2⁵⁸ rows of 108 bytes made
	// NewSynthetic panic in makeslice, and 2⁶² wrapped to 0, so FromBytes
	// took an empty buffer and Row panicked later.
	for _, rows := range []int64{1 << 58, 1 << 62, math.MaxInt64} {
		s := good
		s.Rows, s.Dim = rows, 100
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Rows") {
			t.Errorf("Rows = %d: error %v, want one naming Rows", rows, err)
		}
		if _, err := NewSynthetic(s, 1); err == nil {
			t.Errorf("Rows = %d: NewSynthetic accepted the spec", rows)
		}
		if _, err := FromBytes(s, nil); err == nil {
			t.Errorf("Rows = %d: FromBytes accepted the spec", rows)
		}
	}
	good.Alpha, good.ZeroFrac = -1, 1
	if err := good.Validate(); err != nil {
		t.Errorf("negative Alpha (uniform) or ZeroFrac 1 rejected: %v", err)
	}
}

func TestSpecSizes(t *testing.T) {
	s := smallSpec()
	if s.RowBytes() != 40 {
		t.Fatalf("row bytes %d", s.RowBytes())
	}
	if s.SizeBytes() != 200*40 {
		t.Fatalf("size %d", s.SizeBytes())
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Bytes()) != string(b.Bytes()) {
		t.Fatal("same seed must produce identical tables")
	}
	c, err := NewSynthetic(smallSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Bytes()) == string(c.Bytes()) {
		t.Fatal("different seeds should differ")
	}
}

func TestSyntheticFillWorkerInvariant(t *testing.T) {
	// NewSynthetic fills row chunks on up to GOMAXPROCS workers; the bytes
	// must be those of the plain row-by-row loop at any worker count.
	spec := smallSpec()
	spec.Rows = 3*syntheticChunkRows + 17
	want := make([]byte, spec.SizeBytes())
	row := make([]float32, spec.Dim)
	rb := int64(spec.RowBytes())
	for r := int64(0); r < spec.Rows; r++ {
		FillSyntheticRow(row, 9, spec.ID, r, spec.ZeroFrac)
		if err := quant.QuantizeRow(want[r*rb:(r+1)*rb], row, spec.QType); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		tb, err := NewSynthetic(spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tb.Bytes(), want) {
			t.Fatalf("GOMAXPROCS %d: table differs from the serial fill", procs)
		}
	}
}

// TestSyntheticRowDistribution checks an odd-Dim table row by row: a row is
// zero exactly when its RNG's first Float64 falls below ZeroFrac, and the
// other rows' elements — all of them, and the unpaired last column alone —
// are N(0, 0.5²) up to int8 quantisation error.
func TestSyntheticRowDistribution(t *testing.T) {
	const seed = 42
	spec := Spec{
		ID: 10, Name: "t10", Rows: 4000, Dim: 109, QType: quant.Int8,
		Kind: User, PoolingFactor: 8, Alpha: 1.0, ZeroFrac: 0.1,
	}
	tb, err := NewSynthetic(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	type moments struct{ n, sum, sq float64 }
	add := func(m *moments, v float64) { m.n++; m.sum += v; m.sq += v * v }
	check := func(what string, m moments, tol float64) {
		mean := m.sum / m.n
		sd := math.Sqrt(m.sq/m.n - mean*mean)
		if math.Abs(mean) > tol || math.Abs(sd-0.5) > tol {
			t.Errorf("%s: mean %.4f σ %.4f over %.0f values, want 0 and 0.5 within %g", what, mean, sd, m.n, tol)
		}
	}
	var all, last moments
	row := make([]float32, spec.Dim)
	zeros := 0
	for r := int64(0); r < spec.Rows; r++ {
		if err := tb.DequantizeRow(row, r); err != nil {
			t.Fatal(err)
		}
		wantZero := xrand.New(seed^uint64(spec.ID)<<32^uint64(r)*0x9e3779b97f4a7c15).Float64() < spec.ZeroFrac
		allZero := true
		for _, v := range row {
			allZero = allZero && v == 0
		}
		if allZero != wantZero {
			t.Fatalf("row %d: all-zero %v, first-draw rule says %v", r, allZero, wantZero)
		}
		if wantZero {
			zeros++
			continue
		}
		for _, v := range row {
			add(&all, float64(v))
		}
		add(&last, float64(row[spec.Dim-1]))
	}
	if zeros < 300 || zeros > 500 {
		t.Errorf("%d zero rows of %d, want ≈ 400", zeros, spec.Rows)
	}
	check("all elements", all, 0.005)
	check("last column", last, 0.03)
}

// TestSyntheticGolden pins the bytes of two small odd-Dim tables: an FP32 one
// holds the sampler's values, an Int8 one QuantizeRow's codes and footers
// (dim 37: four kernel blocks and a 5-element tail). A change to the
// sampler, the row seeding or the quantizer is a visible one-line diff here.
// Only on amd64: the sampler's layer tables come from math.Exp and math.Log,
// whose assembly or portable versions may round differently elsewhere.
func TestSyntheticGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bytes are pinned for amd64's math.Exp and math.Log, not %s's", runtime.GOARCH)
	}
	for _, c := range []struct {
		qt   quant.Type
		dim  int
		want uint64
	}{
		{quant.FP32, 13, 0x0490d46420cda12f},
		{quant.Int8, 37, 0x0749ae52c0a8d4bb},
	} {
		spec := Spec{
			ID: 3, Name: "golden", Rows: 64, Dim: c.dim, QType: c.qt,
			Kind: Item, PoolingFactor: 1, ZeroFrac: 0.25,
		}
		tb, err := NewSynthetic(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(tb.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%v synthetic table FNV-64a %#016x, want %#016x", c.qt, got, c.want)
		}
	}
}

func TestZeroFracRowsPresent(t *testing.T) {
	tb, err := NewSynthetic(smallSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, 32)
	zeros := 0
	for r := int64(0); r < 200; r++ {
		if err := tb.DequantizeRow(row, r); err != nil {
			t.Fatal(err)
		}
		allZero := true
		for _, v := range row {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			zeros++
		}
	}
	// ZeroFrac 0.3 of 200 rows ≈ 60 ± sampling noise.
	if zeros < 35 || zeros > 90 {
		t.Fatalf("zero rows %d, want ≈60", zeros)
	}
}

func TestRowRangeErrors(t *testing.T) {
	tb, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Row(-1); err == nil {
		t.Fatal("negative row should fail")
	}
	if _, err := tb.Row(200); err == nil {
		t.Fatal("row == Rows should fail")
	}
}

func TestPoolMatchesManual(t *testing.T) {
	tb, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	indices := []int64{0, 5, 5, 199, 42}
	out := make([]float32, 32)
	if err := tb.Pool(out, indices); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 32)
	row := make([]float32, 32)
	for _, idx := range indices {
		if err := tb.DequantizeRow(row, idx); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] += row[i]
		}
	}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-5 {
			t.Fatalf("pool mismatch at %d: %g vs %g", i, out[i], want[i])
		}
	}
}

func TestPoolEmptyIndices(t *testing.T) {
	tb, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := []float32{1, 2, 3}
	out = append(out, make([]float32, 29)...)
	if err := tb.Pool(out, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty pool must zero the output")
		}
	}
}

func TestDequantizeTable(t *testing.T) {
	tb, err := NewSynthetic(smallSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dq, err := tb.Dequantize()
	if err != nil {
		t.Fatal(err)
	}
	if dq.Spec().QType != quant.FP32 {
		t.Fatal("dequantized table should be FP32")
	}
	if dq.Spec().SizeBytes() <= tb.Spec().SizeBytes() {
		t.Fatal("FP32 expansion should grow the table (§A.5 SM cost)")
	}
	// Values must match the quantized decode exactly.
	a, b := make([]float32, 32), make([]float32, 32)
	for r := int64(0); r < 200; r += 17 {
		if err := tb.DequantizeRow(a, r); err != nil {
			t.Fatal(err)
		}
		if err := dq.DequantizeRow(b, r); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d element %d: %g vs %g", r, i, a[i], b[i])
			}
		}
	}
	// FP32 tables dequantize to a copy, not an alias.
	dq2, err := dq.Dequantize()
	if err != nil {
		t.Fatal(err)
	}
	dq2.Bytes()[0] ^= 0xff
	if dq.Bytes()[0] == dq2.Bytes()[0] {
		t.Fatal("Dequantize of FP32 must return an independent copy")
	}
}

func TestKindString(t *testing.T) {
	if User.String() != "user" || Item.String() != "item" {
		t.Fatal("kind names")
	}
}
