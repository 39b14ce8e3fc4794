package xrand

import (
	"math"
	"runtime"
	"sync"
)

// IndexTable draws scattered table indices: Draw returns exactly
// p.Map(z.Rank(r)) and advances r by the same single Uint64, without the
// math.Pow and the Feistel walk. It is a guide table (Chen & Asau 1974) over
// the sampler's own CDF in units of 2⁻³²: entry i holds ⌊z.CDF(i)·2³²⌋ and
// p.Map(i), and a draw whose top 32 bits kk satisfy thr[i] ≤ kk < thr[i+1]
// has rank i.
//
// The closed form stays the definition. The table answers only when kk is at
// least 2 units clear of both thresholds, which puts u = k/2⁵³ more than
// 2⁻³² ≈ 2.3·10⁻¹⁰ from CDF(i) and CDF(i+1); every other draw, about 3n/2³²
// of them, is resolved by Zipf.rankOf on the same u. Rounding cannot reach
// that far. With b = u·C+1 and C = normConstant, a rounding in Rank or CDF
// moves a rank boundary by some ulps times b/|C| in u: 2⁻⁵³·b/|C| for b
// itself, δ·|1−α|·b/|C| for a relative error δ in math.Pow, where δ is a few
// ulp plus one per unit of the exponent 1/|1−α| (its integer part is applied
// by repeated squaring). b/|C| ≤ 1/(1−n^−|1−α|) is about 1 on most tables and
// 1/(|1−α|·ln n) near α = 1 (28 on the benchmark's most nearly harmonic
// one), so the shift is of order 10⁻¹⁵ to 10⁻¹⁴ — but unbounded as α → 1. So
// no table is built, and every draw takes the formula, when α ≠ 1 leaves
// |C| < 2⁻¹⁶ or when α > 64 (what remains has b/|C| ≤ 2¹⁶+1 and a worst shift
// near 2⁻³⁶, a sixteenth of the margin; α = 1 itself is exp(u·ln n) and has
// no such term), nor when α ≤ 0 or n = 1 (Rank draws Int63n, not Float64) or
// n ≥ 2³² (indices are stored in 32 bits). Identity is per platform: arm64
// may fuse u·C+1 into one rounding, and the guard band is resolved by that
// platform's own formula.
//
// Cost: 8 bytes per row plus a guide of at most max(1, n/2) uint32s, all
// allocated by NewIndexTable, whose rows cost about 100 ns each, spread over
// up to GOMAXPROCS cores.
type IndexTable struct {
	z     *Zipf
	p     *Permuter
	ent   []indexEntry // by rank; nil when no table is built and Draw is the formula
	guide []uint32     // guide[kk>>shift] is the rank holding the bucket's first kk
	shift uint
}

type indexEntry struct {
	thr uint32 // ⌊CDF(rank)·2³²⌋, saturating
	idx uint32 // Map(rank)
}

// NewIndexTable builds the table for p.Map(z.Rank(r)). A later change to p
// (Permuter.Identity) is not seen by a built table.
func NewIndexTable(z *Zipf, p *Permuter) *IndexTable {
	t := &IndexTable{z: z, p: p}
	n := z.n
	// Written so that a NaN constant also means no table.
	if z.uniform || n == 1 || n >= 1<<32 || z.alpha > 64 ||
		z.alpha != 1 && !(math.Abs(z.normConstant) >= 1.0/(1<<16)) {
		return t
	}
	const chunk = 4096 // entries depend on rank alone: any worker count agrees
	t.ent = make([]indexEntry, n)
	chunks := (len(t.ent) + chunk - 1) / chunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	fill := func(w int) {
		for c := w; c < chunks; c += workers {
			for i := c * chunk; i < min((c+1)*chunk, len(t.ent)); i++ {
				thr := math.Min(z.CDF(int64(i))*(1<<32), math.MaxUint32)
				t.ent[i] = indexEntry{uint32(thr), uint32(p.Map(int64(i)))}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); fill(w) }()
	}
	fill(0)
	wg.Wait()
	// The smallest power of two ≥ n/4 buckets: whatever the skew, an average
	// draw scans past two thresholds (a draw deep in a steep tail, many).
	t.shift = 32
	for 4<<(32-t.shift) < n {
		t.shift--
	}
	t.guide = make([]uint32, 1<<(32-t.shift))
	rank := 0
	for b := range t.guide {
		for rank+1 < len(t.ent) && uint64(t.ent[rank+1].thr) <= uint64(b)<<t.shift {
			rank++
		}
		t.guide[b] = uint32(rank)
	}
	return t
}

// Draw returns p.Map(z.Rank(r)).
func (t *IndexTable) Draw(r *RNG) int64 {
	if t.ent == nil {
		return t.p.Map(t.z.Rank(r))
	}
	idx, _ := t.at(r.Uint64() >> 11)
	return idx
}

// at returns the index for the 53 bits k that Float64 turns into u = k/2⁵³,
// and whether the table (true) or the formula answered; needs a built table.
func (t *IndexTable) at(k uint64) (idx int64, tabled bool) {
	kk := uint32(k >> 21)
	i, last := int(t.guide[kk>>t.shift]), len(t.ent)-1
	for i < last && t.ent[i+1].thr <= kk {
		i++
	}
	// Rank clamps below 0 and above n−1, so the outer ends need no margin.
	if e := t.ent[i]; (i == 0 || kk-e.thr >= 2) && (i == last || t.ent[i+1].thr-kk >= 2) {
		return int64(e.idx), true
	}
	return t.p.Map(t.z.rankOf(float64(k) / (1 << 53))), false
}
