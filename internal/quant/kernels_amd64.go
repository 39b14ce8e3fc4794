package quant

import (
	"math"
	"slices"
)

// accumulateInt8 runs the vector kernel over the leading multiple of eight
// elements and the portable loop over the < 8-element tail.
func accumulateInt8(acc []float32, codes []byte, scale, bias float32) {
	codes = codes[:len(acc)] // the kernel trusts n for both pointers
	n := len(acc) &^ 7
	if n > 0 {
		accumulateInt8x8(&acc[0], &codes[0], n, scale, bias)
	}
	accumulateInt8Go(acc[n:], codes[n:], scale, bias)
}

// quantizeInt8 runs the vector kernels over the leading multiple of eight
// elements and the portable loop over the < 8-element tail.
func quantizeInt8(dst []byte, src []float32) {
	n := len(src) &^ 7
	minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
	if n > 0 {
		minV, maxV = extremesX8(&src[0], n)
	}
	if minV == 0 {
		// ±0 tie: lane order chose the sign; the portable loop keeps the first
		// zero. A zero maximum's sign reaches no output (maxV−minV, codes).
		minV = src[slices.Index(src, 0)]
	}
	scale, bias := quantizeInt8Go(dst, src, n, minV, maxV)
	if n > 0 {
		codesX8(&dst[0], &src[0], n, scale, bias)
	}
}

// The SSE2 kernels in accumulate_amd64.s and quantize_amd64.s; n must be a
// positive multiple of 8 and every pointer must address n elements.

//go:noescape
func accumulateInt8x8(acc *float32, codes *byte, n int, scale, bias float32)

//go:noescape
func extremesX8(src *float32, n int) (minV, maxV float32)

//go:noescape
func codesX8(dst *byte, src *float32, n int, scale, bias float32)
