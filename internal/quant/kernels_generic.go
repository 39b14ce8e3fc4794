//go:build !amd64

package quant

import "math"

// avx2 is false: no pooling kernel to select on this GOARCH.
const avx2 = false

// Prefetch does nothing on a GOARCH without a kernel.
func Prefetch([][]byte) {}

// poolInt8 is the portable loop on every GOARCH without a kernel, as on an
// amd64 CPU without AVX2.
func poolInt8(acc []float32, rows [][]byte) {
	for _, row := range rows {
		scale, bias := getMeta(row[len(acc):])
		accumulateInt8Go(acc, row, scale, bias)
	}
}

// quantizeInt8 is the portable loop on every GOARCH without a kernel.
func quantizeInt8(dst []byte, src []float32) {
	quantizeInt8Go(dst, src, 0, float32(math.Inf(1)), float32(math.Inf(-1)))
}
