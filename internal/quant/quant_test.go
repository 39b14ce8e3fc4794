package quant

import (
	"math"
	"testing"
	"testing/quick"

	"sdm/internal/xrand"
)

func randRow(seed uint64, dim int) []float32 {
	rng := xrand.New(seed)
	row := make([]float32, dim)
	for i := range row {
		row[i] = float32(rng.Norm(0, 1))
	}
	return row
}

func TestRowBytes(t *testing.T) {
	cases := []struct {
		t    Type
		dim  int
		want int
	}{
		{Int8, 64, 72},
		{Int8, 1, 9},
		{Int4, 64, 40},
		{Int4, 7, 12},
		{FP32, 64, 256},
		{FP16, 64, 128},
	}
	for _, c := range cases {
		if got := RowBytes(c.t, c.dim); got != c.want {
			t.Errorf("RowBytes(%v, %d) = %d, want %d", c.t, c.dim, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []Type{Int8, Int4, FP32, FP16} {
		if typ.String() == "" {
			t.Errorf("empty name for %d", typ)
		}
	}
}

func TestRoundTripError(t *testing.T) {
	for _, typ := range []Type{Int8, Int4, FP32, FP16} {
		src := randRow(42, 96)
		minV, maxV := src[0], src[0]
		for _, v := range src {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		buf := make([]byte, RowBytes(typ, len(src)))
		if err := QuantizeRow(buf, src, typ); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		out := make([]float32, len(src))
		if err := DequantizeRow(out, buf, typ); err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		tol := MaxError(typ, minV, maxV)
		for i := range src {
			if d := float32(math.Abs(float64(src[i] - out[i]))); d > tol {
				t.Fatalf("%v: element %d error %g > tolerance %g", typ, i, d, tol)
			}
		}
	}
}

func TestZeroRowExact(t *testing.T) {
	for _, typ := range []Type{Int8, Int4, FP32, FP16} {
		src := make([]float32, 32)
		buf := make([]byte, RowBytes(typ, 32))
		if err := QuantizeRow(buf, src, typ); err != nil {
			t.Fatal(err)
		}
		out := make([]float32, 32)
		if err := DequantizeRow(out, buf, typ); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 0 {
				t.Fatalf("%v: zero row decoded to %g at %d", typ, v, i)
			}
		}
	}
}

func TestConstantRow(t *testing.T) {
	src := make([]float32, 16)
	for i := range src {
		src[i] = 3.25
	}
	buf := make([]byte, RowBytes(Int8, 16))
	if err := QuantizeRow(buf, src, Int8); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, 16)
	if err := DequantizeRow(out, buf, Int8); err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if math.Abs(float64(v-3.25)) > 1e-6 {
			t.Fatalf("constant row decode %g", v)
		}
	}
}

func TestBadSizes(t *testing.T) {
	src := make([]float32, 8)
	if err := QuantizeRow(make([]byte, 5), src, Int8); err == nil {
		t.Fatal("short buffer should fail quantize")
	}
	if err := DequantizeRow(src, make([]byte, 5), Int8); err == nil {
		t.Fatal("short buffer should fail dequantize")
	}
	if err := AccumulateRow(src, make([]byte, 5), Int8); err == nil {
		t.Fatal("short buffer should fail accumulate")
	}
}

func TestAccumulateMatchesDequantAdd(t *testing.T) {
	for _, typ := range []Type{Int8, Int4, FP32, FP16} {
		src := randRow(7, 48)
		buf := make([]byte, RowBytes(typ, 48))
		if err := QuantizeRow(buf, src, typ); err != nil {
			t.Fatal(err)
		}
		acc := randRow(8, 48)
		ref := make([]float32, 48)
		copy(ref, acc)
		dec := make([]float32, 48)
		if err := DequantizeRow(dec, buf, typ); err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			ref[i] += dec[i]
		}
		if err := AccumulateRow(acc, buf, typ); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			if math.Abs(float64(acc[i]-ref[i])) > 1e-5 {
				t.Fatalf("%v: accumulate mismatch at %d: %g vs %g", typ, i, acc[i], ref[i])
			}
		}
	}
}

func TestQuantizePropertyInt8(t *testing.T) {
	// Property: int8 round trip stays within the row's analytic tolerance.
	f := func(seed uint64) bool {
		src := randRow(seed, 32)
		minV, maxV := src[0], src[0]
		for _, v := range src {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		buf := make([]byte, RowBytes(Int8, 32))
		if err := QuantizeRow(buf, src, Int8); err != nil {
			return false
		}
		out := make([]float32, 32)
		if err := DequantizeRow(out, buf, Int8); err != nil {
			return false
		}
		tol := MaxError(Int8, minV, maxV)
		for i := range src {
			if float32(math.Abs(float64(src[i]-out[i]))) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFP16SpecialValues(t *testing.T) {
	cases := []float32{0, -0, 1, -1, 0.5, 65504, 1e-8, 3.14159}
	for _, v := range cases {
		h := f32ToF16(v)
		back := f16ToF32(h)
		if v == 0 {
			if back != 0 {
				t.Fatalf("fp16 zero round trip: %g", back)
			}
			continue
		}
		rel := math.Abs(float64(back-v)) / math.Max(math.Abs(float64(v)), 1e-7)
		if math.Abs(float64(v)) < 6e-5 {
			// Subnormal range flushes to zero in our encoder.
			if back != 0 {
				t.Fatalf("fp16 tiny value %g → %g, want flush to 0", v, back)
			}
			continue
		}
		if rel > 1e-3 {
			t.Fatalf("fp16 round trip %g → %g (rel %g)", v, back, rel)
		}
	}
}

func TestFP16Overflow(t *testing.T) {
	h := f32ToF16(1e9)
	if h&0x7c00 != 0x7c00 {
		t.Fatal("large value should map to infinity")
	}
	if !math.IsInf(float64(f16ToF32(h)), 1) {
		t.Fatal("fp16 infinity should decode to +Inf")
	}
}

func TestFP16NonFiniteAndSubnormal(t *testing.T) {
	// NaN stays NaN with its sign (it used to encode as ±Inf).
	for _, bits := range []uint32{0x7fc00000, 0xffc00000, 0x7f800001, 0xff812345, 0x7fffffff} {
		back := f16ToF32(f32ToF16(math.Float32frombits(bits)))
		if back == back || math.Float32bits(back)>>31 != bits>>31 {
			t.Errorf("fp16 NaN %#08x → %#08x, want a NaN of the same sign", bits, math.Float32bits(back))
		}
	}
	for _, sign := range []int{1, -1} {
		inf := float32(math.Inf(sign))
		if back := f16ToF32(f32ToF16(inf)); back != inf {
			t.Errorf("fp16 %g → %g", inf, back)
		}
	}
	// The encoder flushes everything below the half normal range (float32
	// subnormals and half-subnormal magnitudes alike) to a zero of the same
	// sign; the decoder still renormalizes half subnormals exactly.
	for _, v := range []float32{math.Float32frombits(1), -math.Float32frombits(0x7fffff), 5.96e-8, -6.0e-5} {
		h := f32ToF16(v)
		if h&0x7fff != 0 || h>>15 != uint16(math.Float32bits(v)>>31) {
			t.Errorf("fp16 encode of %g = %#04x, want signed zero", v, h)
		}
	}
	for h, want := range map[uint16]float32{0x0001: 0x1p-24, 0x8001: -0x1p-24, 0x03ff: 0x1p-14 - 0x1p-24, 0x0400: 0x1p-14} {
		if got := f16ToF32(h); got != want {
			t.Errorf("fp16 decode of %#04x = %g, want %g", h, got, want)
		}
	}
	// Truncation, not rounding: the largest float32 below 2 keeps only its
	// top ten mantissa bits.
	if h := f32ToF16(math.Float32frombits(0x3fffffff)); h != 0x3fff {
		t.Errorf("fp16 encode of 1.9999999 = %#04x, want 0x3fff (truncated)", h)
	}
}

func TestInt4OddDim(t *testing.T) {
	src := randRow(5, 7) // odd element count exercises the nibble tail
	buf := make([]byte, RowBytes(Int4, 7))
	if err := QuantizeRow(buf, src, Int4); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, 7)
	if err := DequantizeRow(out, buf, Int4); err != nil {
		t.Fatal(err)
	}
	minV, maxV := src[0], src[0]
	for _, v := range src {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	tol := MaxError(Int4, minV, maxV)
	for i := range src {
		if float32(math.Abs(float64(src[i]-out[i]))) > tol {
			t.Fatalf("odd-dim int4 error at %d", i)
		}
	}
}
