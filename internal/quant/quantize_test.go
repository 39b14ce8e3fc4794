package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"sdm/internal/xrand"
)

// edges are the element values the quantize differential tests mix into
// rows: both zeros, NaN, both infinities, denormals, near-overflow and 2⁶³.
var edges = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e-40, -1e-40, 3e38, -3e38, 1 << 63,
}

// checkQuantizeInt8 compares QuantizeRow's Int8 bytes — codes and footer —
// with the portable loop's, and checks that nothing past the row is written.
func checkQuantizeInt8(t *testing.T, src []float32) {
	t.Helper()
	want := make([]byte, RowBytes(Int8, len(src)))
	quantizeInt8Go(want, src, 0, float32(math.Inf(1)), float32(math.Inf(-1)))
	got := make([]byte, len(want)+1)
	got[len(want)] = 0xa5
	if err := QuantizeRow(got[:len(want)], src, Int8); err != nil {
		t.Fatalf("dim %d: %v", len(src), err)
	}
	if !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0xa5 {
		t.Fatalf("dim %d row %v:\n got  %x\n want %x", len(src), src, got, want)
	}
}

// TestQuantizeInt8MatchesPortableLoop is the quantize kernel's differential
// test: every dim 0–200 (all tail lengths) × 64 rows with the source offset
// rotating through the 16-byte misalignments, in four kinds — plain normal
// rows, rows with edge values sprinkled in, and non-negative and
// non-positive rows seeded with ±0 and NaN, whose minimum or maximum is a
// zero of either sign.
func TestQuantizeInt8MatchesPortableLoop(t *testing.T) {
	rng := xrand.New(29)
	back := make([]float32, 200+3)
	for dim := 0; dim <= 200; dim++ {
		for k := 0; k < 64; k++ {
			src := back[k%4 : k%4+dim]
			rng.NormRow(src, 0, 1)
			for i, v := range src {
				switch k / 4 % 4 {
				case 1:
					if rng.Intn(8) == 0 {
						src[i] = edges[rng.Intn(len(edges))]
					}
				case 2, 3:
					src[i] = float32(math.Abs(float64(v)))
					if k/4%4 == 3 {
						src[i] = -src[i]
					}
					if rng.Intn(4) == 0 {
						src[i] = edges[rng.Intn(3)]
					}
				}
			}
			checkQuantizeInt8(t, src)
		}
	}
}

// FuzzQuantizeRowInt8 turns raw uint32 bit patterns into a float32 row of
// 0–300 elements and holds QuantizeRow to the portable loop byte for byte.
// The seed corpus runs under plain `go test`.
func FuzzQuantizeRowInt8(f *testing.F) {
	words := func(vs ...float32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
		}
		return b
	}
	negZero := float32(math.Copysign(0, -1))
	f.Add(words(1, float32(math.NaN()), -2, 3, 0.5, -0.25, 7, 8, 9)) // a NaN in the first eight
	f.Add(words(-1, 2, 3, 1<<63, 4, 5, 6, 7, 3e38))                  // an element ≥ 2⁶³
	f.Add(words(5, negZero, 3, 0, 2, 0, 1, 4, negZero, 6))           // the minimum is −0, +0 present
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]float32, min(len(data)/4, 300))
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkQuantizeInt8(t, src)
	})
}
