package quant

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"sdm/internal/xrand"
)

// poolCase is one Pooler input: Int8 rows of dim codes with their footers,
// and the acc they pool into.
type poolCase struct {
	dim     int
	codes   [][]byte     // per row, dim codes
	metas   [][2]float32 // per row, scale and bias
	accInit []float32
	accOff  int // acc starts accOff elements into its backing array
}

// checkPooler runs c through a Pooler and compares every lane bit for bit
// with one portable loop per row in order; two NaNs compare equal, as in
// checkAccumulateInt8. Rows are staged at rotating misalignments, and acc is
// fenced by canaries.
func checkPooler(t *testing.T, c poolCase) {
	t.Helper()
	rows := make([][]byte, len(c.codes))
	for r, codes := range c.codes {
		back := make([]byte, r%8+c.dim+metaBytes)
		rows[r] = back[r%8:]
		copy(rows[r], codes)
		putMeta(rows[r][c.dim:], c.metas[r][0], c.metas[r][1])
	}
	accBack := make([]float32, c.accOff+c.dim+2)
	accBack[c.accOff] = canary
	accBack[c.accOff+c.dim+1] = canary
	acc := accBack[c.accOff+1 : c.accOff+1+c.dim : c.accOff+1+c.dim]
	copy(acc, c.accInit)

	want := make([]float32, c.dim)
	copy(want, c.accInit)
	for r, codes := range c.codes {
		accumulateInt8Go(want, codes, c.metas[r][0], c.metas[r][1])
	}

	p := NewPooler(acc, Int8)
	for r, row := range rows {
		if err := p.Add(row); err != nil {
			t.Fatalf("dim %d row %d: %v", c.dim, r, err)
		}
		if p.Len() != (r+1)%PoolerRows {
			t.Fatalf("dim %d: Len() = %d after %d rows", c.dim, p.Len(), r+1)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("dim %d: %v", c.dim, err)
	}
	for i := range want {
		g, w := math.Float32bits(acc[i]), math.Float32bits(want[i])
		if g != w && !(isNaN(acc[i]) && isNaN(want[i])) {
			t.Fatalf("dim %d, %d rows, accOff %d: lane %d = %#08x, portable loop %#08x",
				c.dim, len(rows), c.accOff, i, g, w)
		}
	}
	if accBack[c.accOff] != canary || accBack[c.accOff+c.dim+1] != canary {
		t.Fatalf("dim %d accOff %d: wrote outside acc", c.dim, c.accOff)
	}
}

// TestPoolerMatchesPortableLoop is the pooled kernel's differential test:
// every dim 1–320 (all tail lengths, both block widths and their mixes) ×
// row counts on both sides of each batch boundary. Most rows carry a typical
// footer; every seventh a pair of specials, so denormals, infinities and
// NaN meet running sums of every size.
func TestPoolerMatchesPortableLoop(t *testing.T) {
	rng := xrand.New(17)
	k := 0
	for dim := 1; dim <= 320; dim++ {
		for _, nrows := range []int{0, 1, 2, PoolerRows - 1, PoolerRows, PoolerRows + 1, 2*PoolerRows + 3} {
			c := poolCase{dim: dim, accInit: make([]float32, dim), accOff: k % 4}
			rng.NormRow(c.accInit, 0, 10)
			for r := 0; r < nrows; r++ {
				codes := make([]byte, dim)
				for i := range codes {
					codes[i] = byte(rng.Uint64())
				}
				meta := [2]float32{float32(rng.Float64()) * 1e-2, float32(rng.Float64() - 0.5)}
				if k%7 == 3 {
					meta = [2]float32{specials[k%len(specials)], specials[(k/len(specials))%len(specials)]}
				}
				c.codes = append(c.codes, codes)
				c.metas = append(c.metas, meta)
				k++
			}
			checkPooler(t, c)
		}
	}
}

func TestPoolerFP32MatchesDequantAdd(t *testing.T) {
	const dim = 13
	acc, want := randRow(3, dim), make([]float32, dim)
	copy(want, acc)
	p := NewPooler(acc, FP32)
	for r := 0; r < 2*PoolerRows+1; r++ {
		src := randRow(uint64(10+r), dim)
		row := make([]byte, RowBytes(FP32, dim))
		if err := QuantizeRow(row, src, FP32); err != nil {
			t.Fatal(err)
		}
		for i, v := range src {
			want[i] += v
		}
		if err := p.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(acc[i]) != math.Float32bits(want[i]) {
			t.Fatalf("lane %d: %g, dequantize and add %g", i, acc[i], want[i])
		}
	}
}

// TestPoolerBadRowDropsItsBatch: a wrong-sized row fails its batch before
// any of the batch reaches acc; earlier batches stay pooled.
func TestPoolerBadRowDropsItsBatch(t *testing.T) {
	const dim = 9
	good := make([]byte, RowBytes(Int8, dim))
	putMeta(good[dim:], 1, 0)
	good[0] = 1
	acc := make([]float32, dim)
	p := NewPooler(acc, Int8)
	var err error
	for r := 0; r < PoolerRows+3 && err == nil; r++ {
		row := good
		if r == PoolerRows+2 {
			row = good[:dim] // no footer
		}
		if err = p.Add(row); err == nil && r == PoolerRows+2 {
			err = p.Flush()
		}
	}
	if !errors.Is(err, ErrBadRow) {
		t.Fatalf("err = %v, want ErrBadRow", err)
	}
	if acc[0] != PoolerRows || acc[1] != 0 {
		t.Fatalf("acc[0:2] = %v, want the first batch only (%d, 0)", acc[:2], PoolerRows)
	}
	p = NewPooler(acc, Type(9))
	if err := p.Add(good); err != nil {
		t.Fatal(err) // a partial batch is not checked before its flush
	}
	if err := p.Flush(); err == nil || errors.Is(err, ErrBadRow) {
		t.Fatalf("unsupported type: err = %v", err)
	}
}

// FuzzPoolerInt8 feeds arbitrary codes, footer bits, dims and row counts to
// checkPooler: row r's codes and footer are read cyclically from data. The
// seed corpus runs under plain `go test`.
func FuzzPoolerInt8(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(1), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0x6f, 0x12, 0x83, 0x3a, 0, 0, 0, 0xbf}, uint16(123), uint8(42), uint8(3))
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f, 255, 9}, uint16(7), uint8(17), uint8(1))
	f.Add([]byte("a longer seed that spans more than one thirty-two column block"), uint16(300), uint8(33), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, dimBits uint16, nrows, accOff uint8) {
		if len(data) == 0 {
			data = []byte{0}
		}
		c := poolCase{dim: 1 + int(dimBits)%512, accOff: int(accOff % 4)}
		c.accInit = make([]float32, c.dim)
		at := 0
		next := func() byte { b := data[at%len(data)]; at++; return b }
		for i := range c.accInit {
			c.accInit[i] = float32(int(next())-100) * 0.37
		}
		for r := 0; r < int(nrows%40); r++ {
			codes := make([]byte, c.dim)
			for i := range codes {
				codes[i] = next()
			}
			var foot [metaBytes]byte
			for i := range foot {
				foot[i] = next()
			}
			c.codes = append(c.codes, codes)
			c.metas = append(c.metas, [2]float32{
				math.Float32frombits(binary.LittleEndian.Uint32(foot[:4])),
				math.Float32frombits(binary.LittleEndian.Uint32(foot[4:])),
			})
		}
		checkPooler(t, c)
	})
}

// TestPrefetchEdgeRows runs Prefetch over rows at every edge its loop has —
// no rows, a nil and an empty row, one byte, rows starting at each offset
// within a cache line, rows ending exactly at their allocation's end, one
// spanning many lines — and requires it to return with every byte unchanged.
func TestPrefetchEdgeRows(t *testing.T) {
	Prefetch(nil)
	Prefetch([][]byte{})
	back := make([]byte, 4096)
	for i := range back {
		back[i] = byte(i)
	}
	rows := [][]byte{nil, {}, back[:1], back[4095:], back[4096-132:], back[:4096]}
	for off := 0; off < 64; off++ {
		rows = append(rows, back[off:off+132], back[off:off+1], back[64-off:64])
	}
	for n := 0; n <= len(rows); n++ {
		Prefetch(rows[:n])
	}
	for i := range back {
		if back[i] != byte(i) {
			t.Fatalf("byte %d changed to %d", i, back[i])
		}
	}
}
