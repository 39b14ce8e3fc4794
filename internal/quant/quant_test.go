package quant

import (
	"math"
	"testing"
	"testing/quick"

	"sdm/internal/xrand"
)

func randRow(seed uint64, dim int) []float32 {
	row := make([]float32, dim)
	xrand.New(seed).NormRow(row, 0, 1)
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
		{FP32, 64, 256},
	}
	for _, c := range cases {
		if got := RowBytes(c.t, c.dim); got != c.want {
			t.Errorf("RowBytes(%v, %d) = %d, want %d", c.t, c.dim, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	for _, typ := range []Type{Int8, FP32} {
		if typ.String() == "" {
			t.Errorf("empty name for %d", typ)
		}
	}
}

func TestRoundTripError(t *testing.T) {
	for _, typ := range []Type{Int8, FP32} {
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
		// Int8 rounds to the nearest of 255 levels across the row's span;
		// FP32 is exact.
		tol := float32(0)
		if typ == Int8 {
			tol = (maxV - minV) / 255 / 2 * 1.01
		}
		for i := range src {
			if d := float32(math.Abs(float64(src[i] - out[i]))); d > tol {
				t.Fatalf("%v: element %d error %g > tolerance %g", typ, i, d, tol)
			}
		}
	}
}

func TestZeroRowExact(t *testing.T) {
	for _, typ := range []Type{Int8, FP32} {
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
	for _, typ := range []Type{Int8, FP32} {
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
		tol := (maxV - minV) / 255 / 2 * 1.01
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
