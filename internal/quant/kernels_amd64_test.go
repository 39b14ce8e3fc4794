package quant

import (
	"bytes"
	"math"
	"testing"
)

// TestCodesX8MatchesClampCode holds the codes kernel to the portable
// expression under scales and biases QuantizeRow never derives, so that
// every value clampCode can meet reaches the kernel's mask and clamps: NaN,
// ±Inf, 2⁶³ and the float32 below it, −2⁶³ and beyond, the 255/256 and −1/0
// code edges.
func TestCodesX8MatchesClampCode(t *testing.T) {
	src := []float32{
		0, float32(math.Copysign(0, -1)), 0.49, 0.5, -0.5, -0.51, -1, -1.5,
		254.49, 254.5, 255, 255.5, 256, 1e6, -1e6, 1 << 31,
		1 << 63, 1<<63 - 1<<39, -(1 << 63), -1e30, 1e30, 1e-40,
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		3e38, -3e38, 17, 100.25, -7, 128, 42,
	}
	for _, scale := range append(specials, 1, 1e-30, -1) {
		for _, bias := range append(specials, -0.5, 1e30) {
			got, want := make([]byte, len(src)), make([]byte, len(src))
			codesX8(&got[0], &src[0], len(src), scale, bias)
			for i, v := range src {
				want[i] = clampCode((v - bias) / scale)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("scale %g bias %g:\n got  %v\n want %v", scale, bias, got, want)
			}
		}
	}
}

// TestPoolWithoutAVX2 runs the pooling differential tests with the kernel
// switched off, so the fallback an amd64 CPU without AVX2 takes runs on
// every amd64 machine too.
func TestPoolWithoutAVX2(t *testing.T) {
	defer func(on bool) { avx2 = on }(avx2)
	avx2 = false
	t.Run("Pooler", TestPoolerMatchesPortableLoop)
	t.Run("AccumulateRow", TestAccumulateInt8MatchesPortableLoop)
}
