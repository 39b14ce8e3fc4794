package quant

import (
	"errors"
	"math"
	"testing"

	"sdm/internal/xrand"
)

// specials are the scale/bias values the differential test crosses: zero,
// the smallest denormal, a typical scale, near-overflow, infinities, NaN.
var specials = []float32{
	0,
	math.Float32frombits(1), -math.Float32frombits(1),
	1e-3, -1e-3,
	3e38, -3e38,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()),
}

const canary = float32(-12345.678)

func isNaN(f float32) bool { return f != f }

// checkAccumulateInt8 runs AccumulateRow on an Int8 row whose acc starts
// accOff elements and whose src starts srcOff bytes into their backing
// arrays (so neither is 16-byte aligned in general), and compares every
// lane bit for bit with the portable loop. Two NaNs compare equal whatever
// their sign and payload: which operand's NaN an x86 add keeps depends on
// the compiler's register choice (the portable loop itself differs between
// plain and -race builds), and Go leaves it unspecified. accInit pre-fills
// acc.
func checkAccumulateInt8(t *testing.T, codes []byte, scale, bias float32, accInit []float32, accOff, srcOff int) {
	t.Helper()
	dim := len(codes)
	srcBack := make([]byte, srcOff+dim+metaBytes)
	src := srcBack[srcOff:]
	copy(src, codes)
	putMeta(src[dim:], scale, bias)

	accBack := make([]float32, accOff+dim+2)
	accBack[accOff] = canary
	accBack[accOff+dim+1] = canary
	acc := accBack[accOff+1 : accOff+1+dim : accOff+1+dim]
	copy(acc, accInit)

	want := make([]float32, dim)
	copy(want, accInit)
	accumulateInt8Go(want, codes, scale, bias)

	if err := AccumulateRow(acc, src, Int8); err != nil {
		t.Fatalf("dim %d: %v", dim, err)
	}
	for i := range want {
		g, w := math.Float32bits(acc[i]), math.Float32bits(want[i])
		if g != w && !(isNaN(acc[i]) && isNaN(want[i])) {
			t.Fatalf("dim %d scale %g bias %g accOff %d srcOff %d: lane %d (code %d, acc %g) = %#08x, portable loop %#08x",
				dim, scale, bias, accOff, srcOff, i, codes[i], accInit[i], g, w)
		}
	}
	if accBack[accOff] != canary || accBack[accOff+dim+1] != canary {
		t.Fatalf("dim %d accOff %d: wrote outside acc", dim, accOff)
	}
}

// TestAccumulateInt8MatchesPortableLoop is the kernel's differential test:
// every dim 1–320 (all tail lengths, many block counts) × every
// scale/bias pair of specials, with the operand offsets rotating through
// all 16-byte misalignments.
func TestAccumulateInt8MatchesPortableLoop(t *testing.T) {
	t.Logf("pooling path: %s", poolPath())
	rng := xrand.New(16)
	for dim := 1; dim <= 320; dim++ {
		codes := make([]byte, dim)
		accInit := make([]float32, dim)
		rng.NormRow(accInit, 0, 10)
		for i := range codes {
			codes[i] = byte(rng.Uint64())
			if i%7 == 3 { // special values meet the final add too
				accInit[i] = specials[(i/7+dim)%len(specials)]
			}
		}
		codes[dim/2] = 0 // Inf*0 lane
		k := dim
		for _, scale := range specials {
			for _, bias := range specials {
				checkAccumulateInt8(t, codes, scale, bias, accInit, k%4, (k/4)%8)
				k++
			}
		}
	}
}

func TestAccumulateInt8BadLengthLeavesAccUntouched(t *testing.T) {
	for _, dim := range []int{0, 1, 7, 8, 9, 124} {
		for _, delta := range []int{-1, 1, 8} {
			n := dim + metaBytes + delta
			acc := make([]float32, dim)
			for i := range acc {
				acc[i] = canary
			}
			src := make([]byte, n)
			for i := range src {
				src[i] = 0xff
			}
			if err := AccumulateRow(acc, src, Int8); !errors.Is(err, ErrBadRow) {
				t.Fatalf("dim %d, %d-byte src: err = %v, want ErrBadRow", dim, n, err)
			}
			for i, v := range acc {
				if v != canary {
					t.Fatalf("dim %d, %d-byte src: acc[%d] modified", dim, n, i)
				}
			}
		}
	}
}

// FuzzAccumulateRowInt8 feeds arbitrary codes, footer bits and offsets to
// the same differential check. The seed corpus runs under plain `go test`.
func FuzzAccumulateRowInt8(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, math.Float32bits(1e-3), math.Float32bits(-0.5), uint8(1))
	f.Add([]byte{255, 0, 128, 7, 9, 200, 31, 64}, math.Float32bits(3e38), math.Float32bits(3e38), uint8(7))
	f.Add(make([]byte, 124), uint32(0x7f800000), uint32(0x7fc00001), uint8(13))
	f.Add([]byte("seventeen codes.."), uint32(1), uint32(0x80000001), uint8(30))
	f.Fuzz(func(t *testing.T, codes []byte, scaleBits, biasBits uint32, off uint8) {
		if len(codes) > 4096 {
			codes = codes[:4096]
		}
		accInit := make([]float32, len(codes))
		for i, c := range codes {
			accInit[i] = float32(int(c)-100) * 0.37
		}
		checkAccumulateInt8(t, codes, math.Float32frombits(scaleBits), math.Float32frombits(biasBits),
			accInit, int(off%4), int(off/4%8))
	})
}

func TestIsZeroRow(t *testing.T) {
	const dim = 33
	for _, typ := range []Type{Int8, FP32} {
		row := make([]byte, RowBytes(typ, dim))
		if err := QuantizeRow(row, make([]float32, dim), typ); err != nil {
			t.Fatal(err)
		}
		if !IsZeroRow(row, typ) {
			t.Fatalf("%v: QuantizeRow(zeros) is not a zero row", typ)
		}
		for i := range row {
			if typ == Int8 && i >= len(row)-metaBytes {
				break // footer bytes are covered below
			}
			row[i] = 1
			if IsZeroRow(row, typ) {
				t.Fatalf("%v: non-zero byte %d not seen", typ, i)
			}
			row[i] = 0
		}
	}
	row := make([]byte, RowBytes(Int8, dim))
	codes := len(row) - metaBytes
	for _, meta := range [][2]float32{{2, 0}, {0, 0}, {1, 1}, {1, float32(math.Copysign(0, -1))}} {
		putMeta(row[codes:], meta[0], meta[1])
		if IsZeroRow(row, Int8) {
			t.Fatalf("scale %g bias %g taken for a zero row", meta[0], meta[1])
		}
	}
	if IsZeroRow(row[:metaBytes-1], Int8) {
		t.Fatal("a row shorter than its footer is not a zero row")
	}
}
