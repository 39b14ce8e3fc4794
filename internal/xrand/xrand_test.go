package xrand

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Fatal("Intn of non-positive n should be 0")
	}
}

// zigPaths counts the values normPairs sent past the inner rectangles: to
// the tail, to a wedge that kept its point, and to a wedge that refused at
// least once.
type zigPaths struct{ tail, wedge, refused int }

// normPairs is the reference NormRow is held to: the pair loop the retired
// NormPair(mean, stddev) defined, one Uint64 per pair and r.normal on its
// high, then its low, 32 bits, dropping an odd row's last second value.
func normPairs(r *RNG, dst []float32, mean, stddev float64, paths *zigPaths) {
	for i := 0; i < len(dst); i += 2 {
		u := r.Uint64()
		for k, h := range [2]uint32{uint32(u >> 32), uint32(u)} {
			before := *r
			z := mean + stddev*r.normal(h)
			if i+k < len(dst) {
				dst[i+k] = float32(z)
			}
			if _, inner := zigFast(h); !inner {
				draws := 0
				for ; before != *r; draws++ {
					before.Uint64()
				}
				switch {
				case h>>25 == 0:
					paths.tail++
				case draws == 1: // the uniform height alone
					paths.wedge++
				default:
					paths.refused++
				}
			}
		}
	}
}

// TestNormRowMatchesPairs holds NormRow to the pair loop bit for bit — every
// value and the RNG state it leaves — at every row length 0–257 (both
// parities, many pairs) over 10³ seeds, and checks that the run took the
// tail, the wedge and the refusal paths, so each slow path's state sync was
// exercised.
func TestNormRowMatchesPairs(t *testing.T) {
	var paths zigPaths
	got, want := make([]float32, 257), make([]float32, 257)
	for seed := uint64(0); seed < 1000; seed++ {
		a := New(seed)
		b := *a
		for n := 0; n <= 257; n++ {
			a.NormRow(got[:n], 0.25, 0.5)
			normPairs(&b, want[:n], 0.25, 0.5, &paths)
			for i := range n {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("seed %d len %d: value %d is %g, pair loop %g", seed, n, i, got[i], want[i])
				}
			}
			if *a != b {
				t.Fatalf("seed %d len %d: RNG state differs from the pair loop's", seed, n)
			}
		}
	}
	if paths.tail == 0 || paths.wedge == 0 || paths.refused == 0 {
		t.Fatalf("slow paths taken: %+v, want each at least once", paths)
	}
}

// TestNormRowMoments checks the even and odd positions of NormRow for the
// requested mean and σ, and the two for independence: a sampler that
// returned the same draw twice, or two draws tied by one scale, would
// correlate a pair's halves.
func TestNormRowMoments(t *testing.T) {
	r := New(5)
	var sum, sq [2]float64
	var cross float64
	const n = 200000
	row := make([]float32, 2)
	for i := 0; i < n; i++ {
		r.NormRow(row, 2, 3)
		a, b := float64(row[0]), float64(row[1])
		for h, v := range [2]float64{a, b} {
			sum[h] += v
			sq[h] += v * v
		}
		cross += a * b
	}
	var mean, stdev [2]float64
	for h := range mean {
		mean[h] = sum[h] / n
		stdev[h] = math.Sqrt(sq[h]/n - mean[h]*mean[h])
		if math.Abs(mean[h]-2) > 0.05 {
			t.Errorf("half %d: mean %g, want ~2", h, mean[h])
		}
		if math.Abs(stdev[h]-3) > 0.05 {
			t.Errorf("half %d: stddev %g, want ~3", h, stdev[h])
		}
	}
	corr := (cross/n - mean[0]*mean[1]) / (stdev[0] * stdev[1])
	if math.Abs(corr) >= 0.01 {
		t.Errorf("corr(z0, z1) = %g, want |corr| < 0.01", corr)
	}
}

// TestNormRowDistribution compares the empirical CDF of 10⁶ N(0, 1) draws
// with Φ at nine points, and the mass beyond ±zigR (the tail path's alone),
// each within 5 binomial σ. A ziggurat that kept every wedge point, or that
// returned r for every tail draw, misses by more.
func TestNormRowDistribution(t *testing.T) {
	const n = 1000000
	points := []float64{-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3}
	below := make([]int, len(points))
	beyond := 0
	r := New(13)
	row := make([]float32, 1000)
	for i := 0; i < n/len(row); i++ {
		r.NormRow(row, 0, 1)
		for _, v := range row {
			z := float64(v)
			for k, p := range points {
				if z <= p {
					below[k]++
				}
			}
			if math.Abs(z) > zigR {
				beyond++
			}
		}
	}
	phi := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	check := func(what string, got int, p float64) {
		if d := (float64(got) - n*p) / math.Sqrt(n*p*(1-p)); math.Abs(d) > 5 {
			t.Errorf("%s: %d of %d draws, want %.0f (%.1f σ off)", what, got, n, n*p, d)
		}
	}
	for k, p := range points {
		check(fmt.Sprintf("z ≤ %g", p), below[k], phi(p))
	}
	check("|z| > r", beyond, 2*phi(-zigR))
}

// TestZigguratTables checks the layers NormRow reads: edges fall strictly
// from r to 0, every layer has layer 0's area, and each fast-path threshold
// is the inner edge in 24-bit magnitude units.
func TestZigguratTables(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-x * x / 2) }
	area := zigR*f(zigR) + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	if zigX[0] != zigR || zigX[zigLayers-1] != 0 {
		t.Fatalf("edges run %g → %g, want r → 0", zigX[0], zigX[zigLayers-1])
	}
	if a := zigW[0] * zigMag * f(zigR); math.Abs(a/area-1) > 1e-12 {
		t.Errorf("layer 0: width × f(r) = %.17g, want %.17g", a, area)
	}
	for i := 1; i < zigLayers; i++ {
		if !(zigX[i] < zigX[i-1]) {
			t.Fatalf("edge %d = %g, not below edge %d = %g", i, zigX[i], i-1, zigX[i-1])
		}
		if a := zigX[i-1] * (f(zigX[i]) - f(zigX[i-1])); math.Abs(a/area-1) > 1e-12 {
			t.Errorf("layer %d: area %.17g, want %.17g", i, a, area)
		}
		if zigW[i]*zigMag != zigX[i-1] {
			t.Errorf("layer %d: width %g, want edge %d = %g", i, zigW[i]*zigMag, i-1, zigX[i-1])
		}
	}
	for i, k := range zigK {
		if k >= zigMag || float64(k)*zigW[i] < zigX[i] || k > 0 && float64(k-1)*zigW[i] >= zigX[i] {
			t.Errorf("layer %d: threshold %d is not edge %g in %d-magnitude units", i, k, zigX[i], zigMag)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Fatalf("exp mean %g, want ~4", mean)
	}
}

func TestZipfRankBounds(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1.0, 1.3, 2.0} {
		z := NewZipf(1000, alpha)
		r := New(17)
		for i := 0; i < 10000; i++ {
			v := z.Rank(r)
			if v < 0 || v >= 1000 {
				t.Fatalf("alpha=%g rank %d out of range", alpha, v)
			}
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher alpha must concentrate more mass on top ranks.
	top1Frac := func(alpha float64) float64 {
		z := NewZipf(100000, alpha)
		r := New(23)
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if z.Rank(r) < 1000 { // top 1%
				hits++
			}
		}
		return float64(hits) / n
	}
	low, mid, high := top1Frac(0.3), top1Frac(0.9), top1Frac(1.3)
	if !(low < mid && mid < high) {
		t.Fatalf("top-1%% mass not increasing with alpha: %g %g %g", low, mid, high)
	}
	if high < 0.5 {
		t.Fatalf("alpha=1.3 top-1%% mass %g, want power-law concentration > 0.5", high)
	}
	if u := top1Frac(0); math.Abs(u-0.01) > 0.005 {
		t.Fatalf("uniform top-1%% mass %g, want ~0.01", u)
	}
}

func TestZipfCDFMonotonic(t *testing.T) {
	z := NewZipf(10000, 1.1)
	prev := 0.0
	for i := int64(0); i <= 10000; i += 100 {
		c := z.CDF(i)
		if c < prev-1e-12 {
			t.Fatalf("CDF decreasing at %d: %g < %g", i, c, prev)
		}
		prev = c
	}
	if z.CDF(0) != 0 || z.CDF(10000) != 1 {
		t.Fatal("CDF endpoints wrong")
	}
}

func TestZipfUniformFallback(t *testing.T) {
	z := NewZipf(10, 0)
	if z.alpha != 0 {
		t.Fatal("alpha should stay 0")
	}
	r := New(29)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Rank(r)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("uniform bucket %d count %d far from 10000", i, c)
		}
	}
}

func TestPermuterBijection(t *testing.T) {
	for _, n := range []int64{1, 2, 7, 64, 1000, 4097} {
		p := NewPermuter(n, 99)
		seen := make(map[int64]bool, n)
		for i := int64(0); i < n; i++ {
			v := p.Map(i)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: Map(%d)=%d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: Map(%d)=%d collides", n, i, v)
			}
			seen[v] = true
		}
	}
}

func TestPermuterBijectionProperty(t *testing.T) {
	const n = 1 << 14
	p := NewPermuter(n, 7)
	f := func(a, b uint16) bool {
		x, y := int64(a)%n, int64(b)%n
		if x == y {
			return true
		}
		return p.Map(x) != p.Map(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermuterIdentity(t *testing.T) {
	p := NewPermuter(100, 1)
	p.Identity = true
	for i := int64(0); i < 100; i++ {
		if p.Map(i) != i {
			t.Fatalf("identity Map(%d) = %d", i, p.Map(i))
		}
	}
}

func TestPermuterScatters(t *testing.T) {
	// Adjacent ranks should not stay adjacent (spatial-locality breaking).
	p := NewPermuter(1<<20, 3)
	adjacent := 0
	for i := int64(0); i < 1000; i++ {
		d := p.Map(i+1) - p.Map(i)
		if d < 0 {
			d = -d
		}
		if d < 32 {
			adjacent++
		}
	}
	if adjacent > 10 {
		t.Fatalf("%d of 1000 adjacent ranks stayed near-adjacent", adjacent)
	}
}
