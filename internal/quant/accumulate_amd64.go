package quant

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

// accumulateInt8x8 is the SSE2 kernel in accumulate_amd64.s; n must be a
// positive multiple of 8 and both pointers must address n elements.
//
//go:noescape
func accumulateInt8x8(acc *float32, codes *byte, n int, scale, bias float32)
