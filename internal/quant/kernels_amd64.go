package quant

import (
	"math"
	"slices"
)

// avx2 reports whether the CPU has AVX2 and the OS saves the ymm registers,
// probed once at package init: poolInt8 runs the kernel only then. Tests
// switch it off to run the fallback.
var avx2 = hasAVX2()

// poolInt8 prefetches every row (len(acc) codes and a footer; the caller
// checked the lengths) and adds them into acc in order, in one kernel call.
// The kernel adds the < 8-column tail from column n on into an 8-lane
// scratch, of which only the first len(acc)−n lanes are kept. Without AVX2
// it is the portable loop, as on every GOARCH without a kernel.
func poolInt8(acc []float32, rows [][]byte) {
	dim := len(acc)
	if !avx2 {
		for _, row := range rows {
			scale, bias := getMeta(row[dim:])
			accumulateInt8Go(acc, row, scale, bias)
		}
		return
	}
	if dim == 0 {
		return
	}
	n := dim &^ 7
	var tail [8]float32
	copy(tail[:], acc[n:])
	Prefetch(rows)
	poolInt8x8(&acc[0], &tail[0], &rows[0], len(rows), dim)
	copy(acc[n:], tail[:])
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

// Prefetch asks the CPU to bring every cache line of every row into cache
// (prefetch_amd64.s) and returns without waiting for any of them, so that a
// caller who knows a batch's row addresses before it reads them has all
// their first-touch misses in flight at once. It reads and writes nothing
// the program can observe; on GOARCHes without a kernel it does nothing.
//
//go:noescape
func Prefetch(rows [][]byte)

// The AVX2 pooling kernel in accumulate_amd64.s, with the CPUID probe that
// gates it, and the SSE2 quantize kernels in quantize_amd64.s; each
// contract is beside its code. For the latter two, n must be a positive
// multiple of 8 and every pointer must address n elements.

//go:noescape
func poolInt8x8(acc, tail *float32, rows *[]byte, nrows, dim int)

func hasAVX2() bool

//go:noescape
func extremesX8(src *float32, n int) (minV, maxV float32)

//go:noescape
func codesX8(dst *byte, src *float32, n int, scale, bias float32)
