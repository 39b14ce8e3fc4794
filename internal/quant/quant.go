// Package quant implements the row-wise embedding quantization the paper
// relies on (§4.1.1, §A.5; Guan et al. 2019): each embedding row is stored
// as int8 or int4 codes followed by a per-row float32 scale and bias. At
// inference rows are dequantized on the fly during pooling; §A.5 also
// evaluates de-quantizing whole tables at load time into FP32.
package quant

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Type is an embedding element encoding.
type Type int

// Supported encodings.
const (
	Int8 Type = iota + 1
	Int4
	FP32
	FP16
)

// String returns the encoding name.
func (t Type) String() string {
	switch t {
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// metaBytes is the per-row scale+bias footer for quantized encodings.
const metaBytes = 8

// RowBytes returns the stored size of one row of dim elements.
func RowBytes(t Type, dim int) int {
	switch t {
	case Int8:
		return dim + metaBytes
	case Int4:
		return (dim+1)/2 + metaBytes
	case FP16:
		return dim * 2
	default: // FP32
		return dim * 4
	}
}

// ErrBadRow is returned when a stored row has the wrong size for its type.
var ErrBadRow = errors.New("quant: row buffer has wrong size")

// QuantizeRow encodes src (dim elements) into dst, which must be exactly
// RowBytes(t, len(src)) long.
func QuantizeRow(dst []byte, src []float32, t Type) error {
	if len(dst) != RowBytes(t, len(src)) {
		return fmt.Errorf("%w: got %d want %d", ErrBadRow, len(dst), RowBytes(t, len(src)))
	}
	switch t {
	case FP32:
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
		}
		return nil
	case FP16:
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[i*2:], f32ToF16(v))
		}
		return nil
	}
	// Row-wise affine quantization: x ≈ bias + scale*code.
	minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range src {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if len(src) == 0 {
		minV, maxV = 0, 0
	}
	levels := float32(255)
	if t == Int4 {
		levels = 15
	}
	scale := (maxV - minV) / levels
	if scale == 0 {
		scale = 1
	}
	bias := minV
	switch t {
	case Int8:
		for i, v := range src {
			dst[i] = byte(clampCode((v-bias)/scale, 255))
		}
		putMeta(dst[len(src):], scale, bias)
	case Int4:
		nb := (len(src) + 1) / 2
		for i := 0; i < nb; i++ {
			lo := clampCode((src[2*i]-bias)/scale, 15)
			hi := uint8(0)
			if 2*i+1 < len(src) {
				hi = clampCode((src[2*i+1]-bias)/scale, 15)
			}
			dst[i] = lo | hi<<4
		}
		putMeta(dst[nb:], scale, bias)
	default:
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	return nil
}

func clampCode(x float32, maxCode int) uint8 {
	c := int(x + 0.5)
	if c < 0 {
		c = 0
	}
	if c > maxCode {
		c = maxCode
	}
	return uint8(c)
}

func putMeta(dst []byte, scale, bias float32) {
	binary.LittleEndian.PutUint32(dst[0:], math.Float32bits(scale))
	binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(bias))
}

func getMeta(src []byte) (scale, bias float32) {
	scale = math.Float32frombits(binary.LittleEndian.Uint32(src[0:]))
	bias = math.Float32frombits(binary.LittleEndian.Uint32(src[4:]))
	return scale, bias
}

// DequantizeRow decodes a stored row into dst (dim = len(dst) elements).
func DequantizeRow(dst []float32, src []byte, t Type) error {
	if len(src) != RowBytes(t, len(dst)) {
		return fmt.Errorf("%w: got %d want %d", ErrBadRow, len(src), RowBytes(t, len(dst)))
	}
	switch t {
	case FP32:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case FP16:
		for i := range dst {
			dst[i] = f16ToF32(binary.LittleEndian.Uint16(src[i*2:]))
		}
	case Int8:
		scale, bias := getMeta(src[len(dst):])
		for i := range dst {
			dst[i] = bias + scale*float32(src[i])
		}
	case Int4:
		nb := (len(dst) + 1) / 2
		scale, bias := getMeta(src[nb:])
		for i := range dst {
			b := src[i/2]
			code := b & 0x0f
			if i%2 == 1 {
				code = b >> 4
			}
			dst[i] = bias + scale*float32(code)
		}
	default:
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	return nil
}

// AccumulateRow dequantizes a stored row and adds it element-wise into acc.
// This is the fused dequantize+pool inner loop of SparseLengthsSum.
func AccumulateRow(acc []float32, src []byte, t Type) error {
	switch t {
	case FP32:
		if len(src) != len(acc)*4 {
			return ErrBadRow
		}
		for i := range acc {
			acc[i] += math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
		}
	case FP16:
		if len(src) != len(acc)*2 {
			return ErrBadRow
		}
		for i := range acc {
			acc[i] += f16ToF32(binary.LittleEndian.Uint16(src[i*2:]))
		}
	case Int8:
		if len(src) != len(acc)+metaBytes {
			return ErrBadRow
		}
		scale, bias := getMeta(src[len(acc):])
		accumulateInt8(acc, src[:len(acc)], scale, bias)
	case Int4:
		nb := (len(acc) + 1) / 2
		if len(src) != nb+metaBytes {
			return ErrBadRow
		}
		scale, bias := getMeta(src[nb:])
		for i := range acc {
			b := src[i/2]
			code := b & 0x0f
			if i%2 == 1 {
				code = b >> 4
			}
			acc[i] += bias + scale*float32(code)
		}
	default:
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	return nil
}

// accumulateInt8Go is the portable int8 dequantize-and-add loop: the whole
// row on a GOARCH without a kernel, the < 8-element tail next to one, and
// the reference the kernel is tested against bit for bit.
func accumulateInt8Go(acc []float32, codes []byte, scale, bias float32) {
	codes = codes[:len(acc)]
	for i := range acc {
		acc[i] += bias + scale*float32(codes[i])
	}
}

// IsZeroRow reports whether a stored row is the encoding QuantizeRow gives
// an all-zero row: zero codes with scale 1 and bias 0 under the int
// encodings, all zero bytes under FP32/FP16.
func IsZeroRow(row []byte, t Type) bool {
	codes := row
	if t == Int8 || t == Int4 {
		n := len(row) - metaBytes
		if n < 0 {
			return false
		}
		scale, bias := getMeta(row[n:])
		if scale != 1 || math.Float32bits(bias) != 0 { // the exact footer of a zero row: bias is +0
			return false
		}
		codes = row[:n]
	}
	for _, b := range codes {
		if b != 0 {
			return false
		}
	}
	return true
}

// MaxError returns the worst-case absolute quantization error for a row
// with the given value range under type t.
func MaxError(t Type, minV, maxV float32) float32 {
	span := maxV - minV
	switch t {
	case Int8:
		return span / 255 / 2 * 1.01
	case Int4:
		return span / 15 / 2 * 1.01
	case FP16:
		m := maxV
		if -minV > m {
			m = -minV
		}
		return m / 1024
	default:
		return 0
	}
}

// f32ToF16 converts to IEEE 754 half precision by truncation (round toward
// zero; adequate for embeddings). Values below the half normal range flush
// to signed zero, values above it overflow to infinity, NaN stays NaN.
func f32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff
	switch {
	case exp <= 0:
		return sign // flush subnormals/underflow to signed zero
	case b&0x7fffffff > 0x7f800000:
		return sign | 0x7e00 | uint16(mant>>13) // quiet NaN, payload's top bits kept
	case exp >= 31:
		return sign | 0x7c00 // overflow to infinity
	default:
		return sign | uint16(exp)<<10 | uint16(mant>>13)
	}
}

// f16ToF32 converts from IEEE 754 half precision.
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal half: renormalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 31:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
