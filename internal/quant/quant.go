// Package quant implements the row-wise embedding quantization the paper
// relies on (§4.1.1, §A.5; Guan et al. 2019): each embedding row is stored
// as int8 codes followed by a per-row float32 scale and bias. At
// inference rows are dequantized on the fly during pooling; §A.5 also
// evaluates de-quantizing whole tables at load time into FP32. On amd64 the
// int8 encode loop runs SSE2 kernels and, where the CPU has AVX2, the pool
// loop an AVX2 kernel, each bit-exact to the portable loop.
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
	FP32
)

// String returns the encoding name.
func (t Type) String() string {
	switch t {
	case Int8:
		return "int8"
	case FP32:
		return "fp32"
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
	case Int8:
		quantizeInt8(dst, src)
	default:
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	return nil
}

// quantizeInt8Go is the portable row-wise affine quantization (x ≈ bias +
// scale*code, bias the minimum, 255 steps to the maximum) from element from
// on, given the extremes of src[:from]. From 0 with ±Inf it is the whole row:
// the path without a kernel and the kernel's test reference. After a kernel
// it is the < 8-element tail, and its scale and bias feed the kernel's codes.
func quantizeInt8Go(dst []byte, src []float32, from int, minV, maxV float32) (scale, bias float32) {
	for _, v := range src[from:] { // a NaN replaces neither; of equal values the earlier stays
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
	scale, bias = (maxV-minV)/255, minV
	if scale == 0 {
		scale = 1
	}
	for i := from; i < len(src); i++ {
		dst[i] = clampCode((src[i] - bias) / scale)
	}
	putMeta(dst[len(src):], scale, bias)
	return scale, bias
}

func clampCode(x float32) uint8 {
	c := int(x + 0.5)
	if c < 0 {
		c = 0
	}
	if c > 255 {
		c = 255
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
	case Int8:
		scale, bias := getMeta(src[len(dst):])
		for i := range dst {
			dst[i] = bias + scale*float32(src[i])
		}
	default:
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	return nil
}

// AccumulateRow dequantizes a stored row and adds it element-wise into acc:
// the fused dequantize+pool inner loop of SparseLengthsSum, one row at a
// time. A Pooler does the same over a whole index sequence.
func AccumulateRow(acc []float32, src []byte, t Type) error {
	rows := [1][]byte{src}
	return accumulateRows(acc, rows[:], t)
}

// PoolerRows is how many rows a Pooler gathers per kernel call.
const PoolerRows = 16

// Pooler runs SparseLengthsSum over a sequence of stored rows: Add gathers
// them, and every PoolerRows of them, and whatever Flush finds, are
// dequantized and added into acc in one call (on an AVX2 CPU one kernel whose
// accumulators stay in registers across the rows). Every element of acc
// ends bit-identical to one AccumulateRow per row in Add order. The rows are
// read at the flush, so a row staged in scratch must stay put until then:
// slot Len() of a PoolerRows-slot scratch is free at every Add.
type Pooler struct {
	acc  []float32
	t    Type
	n    int
	rows [PoolerRows][]byte
}

// NewPooler returns a Pooler adding into acc rows stored as t.
func NewPooler(acc []float32, t Type) Pooler { return Pooler{acc: acc, t: t} }

// Len returns how many rows are gathered and not yet pooled.
func (p *Pooler) Len() int { return p.n }

// Add gathers row, pooling the batch when it is full.
func (p *Pooler) Add(row []byte) error {
	p.rows[p.n] = row
	p.n++
	if p.n < PoolerRows {
		return nil
	}
	return p.Flush()
}

// Flush pools the gathered rows into acc. A row of the wrong size returns
// ErrBadRow, and then none of the batch reaches acc.
func (p *Pooler) Flush() error {
	n := p.n
	p.n = 0
	return accumulateRows(p.acc, p.rows[:n], p.t)
}

// accumulateRows dequantizes rows and adds them into acc in order, after
// checking every row's size.
func accumulateRows(acc []float32, rows [][]byte, t Type) error {
	if t != Int8 && t != FP32 {
		return fmt.Errorf("quant: unsupported type %v", t)
	}
	for _, row := range rows {
		if len(row) != RowBytes(t, len(acc)) {
			return ErrBadRow
		}
	}
	switch {
	case len(rows) == 0:
	case t == Int8:
		poolInt8(acc, rows)
	default:
		for _, row := range rows {
			for i := range acc {
				acc[i] += math.Float32frombits(binary.LittleEndian.Uint32(row[i*4:]))
			}
		}
	}
	return nil
}

// accumulateInt8Go is the portable int8 dequantize-and-add loop: every row
// on a GOARCH or CPU without the pooling kernel, and the reference the
// kernel is tested against bit for bit.
func accumulateInt8Go(acc []float32, codes []byte, scale, bias float32) {
	codes = codes[:len(acc)]
	for i := range acc {
		acc[i] += bias + scale*float32(codes[i])
	}
}

// IsZeroRow reports whether a stored row is the encoding QuantizeRow gives
// an all-zero row: zero codes with scale 1 and bias 0 under Int8, all zero
// bytes under FP32.
func IsZeroRow(row []byte, t Type) bool {
	codes := row
	if t == Int8 {
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
