//go:build !amd64

package quant

import "math"

// accumulateInt8 is the portable loop on every GOARCH without a kernel.
func accumulateInt8(acc []float32, codes []byte, scale, bias float32) {
	accumulateInt8Go(acc, codes, scale, bias)
}

// quantizeInt8 is the portable loop on every GOARCH without a kernel.
func quantizeInt8(dst []byte, src []float32) {
	quantizeInt8Go(dst, src, 0, float32(math.Inf(1)), float32(math.Inf(-1)))
}
