//go:build !amd64

package quant

// accumulateInt8 is the portable loop on every GOARCH without a kernel.
func accumulateInt8(acc []float32, codes []byte, scale, bias float32) {
	accumulateInt8Go(acc, codes, scale, bias)
}
