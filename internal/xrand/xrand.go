// Package xrand provides deterministic random number generation and the
// heavy-tailed samplers used to synthesize DLRM embedding-access workloads.
//
// The paper (§4.2, Fig. 4) observes that accesses to most embedding tables
// follow a power law. Production traces are not available, so workloads in
// this repository are driven by per-table Zipfian samplers whose skew is
// configurable, combined with a pseudorandom index permutation that controls
// spatial locality (hot rows scattered across 4 KB blocks, matching Fig. 5).
//
// Permuter.Map(Zipf.Rank(r)) is the definition of an index draw; IndexTable
// is an index over that expression, not a second sampler: the same value from
// the same RNG step, and the expression itself wherever rounding could part
// the two.
package xrand

import "math"

// RNG is a small, fast, deterministic generator (SplitMix64 seeded
// xorshift128+). It is not safe for concurrent use; create one per goroutine.
type RNG struct {
	s0, s1 uint64
}

// New returns an RNG seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state using a SplitMix64 expansion of seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// Uint64 returns the next 64 pseudorandom bits.
func (r *RNG) Uint64() uint64 {
	var u uint64
	u, r.s0, r.s1 = step(r.s0, r.s1)
	return u
}

// step is one xorshift128+ step: the output and the next state.
func step(s0, s1 uint64) (u, n0, n1 uint64) {
	x, y := s0, s1
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	return x + y, y, x
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Int63n returns a uniform int64 in [0, n). n must be > 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// NormRow fills dst with float32(mean + stddev·z) for independent standard
// normal z by a 128-layer ziggurat (Marsaglia & Tsang 2000), in the stream
// the former NormPair defined: each Uint64 yields dst[i] from its high 32
// bits, then dst[i+1] from its low 32 bits (an odd row still evaluates its
// last pair's second value, and drops it). 97.2 % of values cost a compare
// and a multiply, 2.7 % a math.Exp and 0.06 % (beyond r) two math.Log, and
// only those draw further Uint64s from r.
func (r *RNG) NormRow(dst []float32, mean, stddev float64) {
	s0, s1 := r.s0, r.s1 // in registers across the row; r is synced around a slow value
	for i := 0; i < len(dst); i += 2 {
		var u uint64
		u, s0, s1 = step(s0, s1)
		z, ok := zigFast(uint32(u >> 32))
		if !ok {
			r.s0, r.s1 = s0, s1
			z = r.normal(uint32(u >> 32))
			s0, s1 = r.s0, r.s1
		}
		dst[i] = float32(mean + stddev*z)
		if z, ok = zigFast(uint32(u)); !ok {
			r.s0, r.s1 = s0, s1
			z = r.normal(uint32(u))
			s0, s1 = r.s0, r.s1
		}
		if i+1 < len(dst) {
			dst[i+1] = float32(mean + stddev*z)
		}
	}
	r.s0, r.s1 = s0, s1
}

// The ziggurat covers the half density f(x) = exp(-x²/2), x ≥ 0, with 128
// horizontal layers of equal area. Layer 0 is the rectangle [0, r] × [0, f(r)]
// plus the tail beyond r; layer i > 0 is [0, zigX[i-1]] × [zigY[i-1], zigY[i]],
// and the part of it left of zigX[i] lies wholly under f. A 32-bit draw
// picks a layer with its top 7 bits (xorshift128+'s low bits are its
// weakest), the sign with bit 24 and a magnitude with bits 0–23.
const (
	zigLayers = 128
	zigR      = 3.442619855896652 // base edge, solved so that the top layer closes
	zigMag    = 1 << 24           // magnitudes per layer
)

var (
	zigX [zigLayers]float64 // edges: zigX[0] = zigR, strictly decreasing to zigX[127] = 0
	zigY [zigLayers]float64 // zigY[j] = f(zigX[j])
	zigW [zigLayers]float64 // layer width / zigMag: magnitude → x
	zigK [zigLayers]uint32  // magnitudes below zigK[i] land left of zigX[i]
)

func init() {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	area := zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	zigX[0], zigY[0] = zigR, f(zigR)
	for j := 1; j < zigLayers-1; j++ {
		zigY[j] = zigY[j-1] + area/zigX[j-1]
		zigX[j] = math.Sqrt(-2 * math.Log(zigY[j]))
	}
	zigX[zigLayers-1], zigY[zigLayers-1] = 0, 1
	width := area / zigY[0] // layer 0's, as a rectangle of height f(r)
	for i := range zigLayers {
		if i > 0 {
			width = zigX[i-1]
		}
		zigW[i] = width / zigMag
		zigK[i] = uint32(math.Ceil(zigX[i] / width * zigMag))
	}
}

// normal maps a 32-bit draw to a standard normal value. A point inside its
// layer's inner rectangle lies under f; otherwise a base-layer point becomes
// a tail draw, a wedge point is kept when a uniform height in its layer falls
// under f, and a refused one restarts from a fresh 32-bit draw.
func (r *RNG) normal(h uint32) float64 {
	for {
		z, inner := zigFast(h)
		i, x := h>>25, math.Abs(z)
		switch {
		case inner:
		case i == 0:
			z = math.Copysign(r.normalTail(), z)
		case zigY[i-1]+r.Float64()*(zigY[i]-zigY[i-1]) >= math.Exp(-x*x/2):
			h = uint32(r.Uint64() >> 32)
			continue
		}
		return z
	}
}

// zigFast is normal's common case: the signed point h picks and whether it
// lies in its layer's inner rectangle, where it is the value.
func zigFast(h uint32) (float64, bool) {
	i, m := h>>25, h&(zigMag-1)
	x := float64(m) * zigW[i]
	return math.Float64frombits(math.Float64bits(x) | uint64(h>>24&1)<<63), m < zigK[i] // bit 24 is the sign
}

// normalTail draws |z| conditioned on |z| > zigR (Marsaglia 1964).
func (r *RNG) normalTail() float64 {
	for {
		x := -math.Log(1-r.Float64()) / zigR
		if y := -math.Log(1 - r.Float64()); 2*y > x*x {
			return zigR + x
		}
	}
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Zipf samples ranks from an (approximate) Zipf distribution over
// [0, N): P(rank = i) ∝ 1/(i+1)^Alpha. Rank 0 is the hottest element.
//
// The sampler uses inverse-CDF sampling against the continuous
// approximation of the discrete Zipf CDF, which is accurate for the
// locality-shape experiments this repo runs (Fig. 4) and — unlike
// math/rand's rejection sampler — supports any Alpha > 0, including the
// Alpha ≤ 1 regime typical of embedding tables.
//
// Rank's closed form defines the stream; CDF, the same expression solved the
// other way, is what IndexTable's thresholds are built from.
type Zipf struct {
	n     int64
	alpha float64
	// Precomputed constants for the inverse CDF.
	oneMinusA    float64
	normConstant float64 // N^(1-a) - 1 for a != 1; ln(N) for a == 1
	uniform      bool
}

// NewZipf returns a Zipf sampler over [0, n) with skew alpha.
// alpha == 0 degenerates to the uniform distribution.
func NewZipf(n int64, alpha float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, alpha: alpha}
	switch {
	case alpha <= 0:
		z.uniform = true
	case math.Abs(alpha-1) < 1e-9:
		z.alpha = 1
		z.normConstant = math.Log(float64(n))
	default:
		z.oneMinusA = 1 - alpha
		z.normConstant = math.Pow(float64(n), z.oneMinusA) - 1
	}
	return z
}

// Rank draws a rank in [0, N), rank 0 being the most popular.
func (z *Zipf) Rank(r *RNG) int64 {
	if z.uniform || z.n == 1 {
		return r.Int63n(z.n)
	}
	return z.rankOf(r.Float64())
}

// rankOf is the inverse CDF at u in [0, 1) of a non-uniform sampler.
func (z *Zipf) rankOf(u float64) int64 {
	var x float64
	if z.alpha == 1 {
		// CDF(i) ≈ ln(i+1)/ln(N)  =>  i = N^u - 1
		x = math.Exp(u*z.normConstant) - 1
	} else {
		// CDF(i) ≈ ((i+1)^(1-a) - 1) / (N^(1-a) - 1)
		x = math.Pow(u*z.normConstant+1, 1/z.oneMinusA) - 1
	}
	i := int64(x)
	if i >= z.n {
		i = z.n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// CDF returns the (approximate) probability that a sample has rank < i.
func (z *Zipf) CDF(i int64) float64 {
	if i <= 0 {
		return 0
	}
	if i >= z.n {
		return 1
	}
	if z.uniform {
		return float64(i) / float64(z.n)
	}
	if z.alpha == 1 {
		return math.Log(float64(i)+1) / z.normConstant
	}
	return (math.Pow(float64(i)+1, z.oneMinusA) - 1) / z.normConstant
}

// Permuter maps ranks to scattered table indices using a Feistel-style
// bijection over [0, n). It converts "rank 0 is hottest" into "hot rows are
// scattered uniformly across the table", reproducing the low spatial
// locality the paper measures in Fig. 5. With Identity set, ranks map to
// themselves, producing maximal spatial locality (hot rows share blocks).
type Permuter struct {
	n        int64
	keys     [4]uint64
	halfBits uint
	halfMask uint64
	// Identity disables permutation.
	Identity bool
}

// NewPermuter returns a bijective permuter over [0, n) keyed by seed.
func NewPermuter(n int64, seed uint64) *Permuter {
	if n < 1 {
		n = 1
	}
	bits := uint(1)
	for int64(1)<<bits < n {
		bits++
	}
	if bits%2 == 1 {
		bits++
	}
	half := bits / 2
	p := &Permuter{n: n, halfBits: half, halfMask: (1 << half) - 1}
	r := New(seed)
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	return p
}

func (p *Permuter) round(x, key uint64) uint64 {
	x ^= key
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x & p.halfMask
}

// Map maps rank i in [0, n) to a unique index in [0, n) (cycle-walking
// Feistel network, so the mapping is a true bijection).
func (p *Permuter) Map(i int64) int64 {
	if p.Identity || p.n == 1 {
		return i
	}
	x := uint64(i)
	for {
		l := x >> p.halfBits
		r := x & p.halfMask
		for _, k := range p.keys {
			l, r = r, l^p.round(r, k)
		}
		x = l<<p.halfBits | r
		if int64(x) < p.n {
			return int64(x)
		}
	}
}
