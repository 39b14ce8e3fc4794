package xrand

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// indexShape is one (rows, skew) pair an IndexTable is built over.
type indexShape struct {
	n     int64
	alpha float64
}

// benchShapes are the twelve tables of the end-to-end benchmark's model
// (bench/workloads.go: M1 trimmed to 8 user + 4 item tables, model seed 42)
// at model scale 1.5e-4 (the three fleet workloads) and 3e-4 (host-sm-miss).
func benchShapes() []indexShape {
	alphas := []float64{
		0.99593392345782028, 1.017804080506276, 0.96602693613230184, 0.83128633517555006,
		1.0070309570368836, 1.0073060211714506, 1.0267459225682047, 0.73166621983342939,
		1.0487960773136913, 1.2483328950489736, 1.0401110401636231, 0.96610074530069434,
	}
	rows := [2][]int64{
		{7902, 12133, 2889, 723, 306, 38559, 169, 57271, 52679, 4043, 869, 407},
		{15805, 24266, 5779, 1447, 613, 77118, 338, 114542, 105358, 8086, 1739, 815},
	}
	var out []indexShape
	for _, r := range rows {
		for i, n := range r {
			out = append(out, indexShape{n, alphas[i]})
		}
	}
	return out
}

// edgeShapes cross the sizes and skews where the sampler changes regime:
// uniform (α ≤ 0), n = 1, α so close to 1 that no table is built, α = 1
// itself, and a steep α > 1.
func edgeShapes() []indexShape {
	var out []indexShape
	for _, n := range []int64{1, 2, 3, 255, 65536, 200000} {
		for _, a := range []float64{-1, 0, 0.05, 0.3, 1 - 1e-7, 1, 1 + 1e-7, 2.5} {
			out = append(out, indexShape{n, a})
		}
	}
	return out
}

func (s indexShape) String() string { return fmt.Sprintf("n%d_a%.4g", s.n, s.alpha) }

// build returns the table and, separately constructed, the formula's sampler
// and permuter it is checked against.
func (s indexShape) build(identity bool) (*IndexTable, *Zipf, *Permuter) {
	seed := uint64(s.n)*31 + 7
	tp, p := NewPermuter(s.n, seed), NewPermuter(s.n, seed)
	tp.Identity, p.Identity = identity, identity
	return NewIndexTable(NewZipf(s.n, s.alpha), tp), NewZipf(s.n, s.alpha), p
}

// TestIndexTableMatchesFormula is the table's contract on random draws:
// Draw returns what p.Map(z.Rank(r)) returns and leaves the RNG where Rank
// leaves it, on every benchmark table shape and across the regime edges,
// scattered and spatial. (Random draws reach a guard band about once in
// 10⁴; TestIndexTableBoundaries walks every one of them.)
func TestIndexTableMatchesFormula(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	bench := benchShapes()
	for si, s := range append(bench, edgeShapes()...) {
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			for _, identity := range []bool{false, true} {
				tbl, z, p := s.build(identity)
				if si < len(bench) && tbl.ent == nil {
					t.Fatal("no table built for a benchmark shape")
				}
				a := New(uint64(si)*2 + 1729)
				b := *a
				for i := 0; i < draws; i++ {
					if got, want := tbl.Draw(a), p.Map(z.Rank(&b)); got != want {
						t.Fatalf("identity=%v draw %d: table %d, formula %d", identity, i, got, want)
					}
				}
				if *a != b {
					t.Fatalf("identity=%v: RNG states differ after %d draws", identity, draws)
				}
			}
		})
	}
}

// TestIndexTableBoundaries walks the one place table and formula could part:
// the 53-bit draws k around every threshold (every 16th above 57 271 rows),
// k>>21 from 3 below to 3 above it, low 21 bits all zero and all one. The
// thresholds are recomputed here from CDF, so a table whose entry has moved
// past the guard (a +4 mutant) answers a k the formula puts in the next rank
// and fails. What this cannot show is that a 2-unit guard is wide enough:
// formula and CDF disagree by 10⁻¹⁵, a millionth of one unit, which no k
// drawn here or anywhere lands in — that is the argument in IndexTable's doc
// comment, not a test. The sweep also counts how many of a million random
// draws the table hands to the formula: more than one in a thousand on a
// benchmark shape means it has quietly become the slow path.
func TestIndexTableBoundaries(t *testing.T) {
	bench := benchShapes()
	for si, s := range append(bench, edgeShapes()...) {
		tbl, z, p := s.build(false)
		if tbl.ent == nil {
			continue
		}
		step := int64(1)
		switch {
		case s.alpha > 2:
			// So steep that the whole tail shares the last guide bucket and
			// every at() there scans O(n): sample ~500 thresholds.
			step = s.n/500 + 1
		case s.n > 57271:
			step = 16
		}
		for i := int64(0); i <= s.n; i += step {
			thr := int64(math.Min(z.CDF(i)*(1<<32), math.MaxUint32))
			for d := int64(-3); d <= 3; d++ {
				kk := thr + d
				if kk < 0 || kk > math.MaxUint32 {
					continue
				}
				for _, low := range []uint64{0, 1<<21 - 1} {
					k := uint64(kk)<<21 | low
					got, _ := tbl.at(k)
					if want := p.Map(z.rankOf(float64(k) / (1 << 53))); got != want {
						t.Fatalf("%v threshold %d%+d low %#x: table %d, formula %d", s, i, d, low, got, want)
					}
				}
			}
		}
		if si >= len(bench) {
			continue
		}
		r, guarded := New(uint64(si)+911), 0
		const draws = 1_000_000
		for i := 0; i < draws; i++ {
			if _, tabled := tbl.at(r.Uint64() >> 11); !tabled {
				guarded++
			}
		}
		if guarded*1000 > draws {
			t.Fatalf("%v: %d of %d draws fell to the formula, want < 1 in 1000", s, guarded, draws)
		}
	}
}

// TestIndexTableWorkerInvariant builds every benchmark shape and the regime
// edges at GOMAXPROCS 1 and 4: NewIndexTable fills entry chunks on up to
// GOMAXPROCS workers, and the thresholds, indices, guide and draws must not
// depend on how many there were.
func TestIndexTableWorkerInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range append(benchShapes(), edgeShapes()...) {
		var tables [2]*IndexTable
		for k, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			tables[k], _, _ = s.build(false)
		}
		a, b := tables[0], tables[1]
		if !slices.Equal(a.ent, b.ent) || !slices.Equal(a.guide, b.guide) || a.shift != b.shift {
			t.Fatalf("%v: the table built at GOMAXPROCS 4 differs from GOMAXPROCS 1's", s)
		}
		ra, rb := New(uint64(s.n)), New(uint64(s.n))
		for i := 0; i < 10000; i++ {
			if x, y := a.Draw(ra), b.Draw(rb); x != y {
				t.Fatalf("%v draw %d: %d at GOMAXPROCS 1, %d at 4", s, i, x, y)
			}
		}
	}
}

// TestIndexTableFootprint holds the table to its budget — 10 bytes per row
// and a constant, everything allocated by the constructor — and the shapes
// that get no table to allocating nothing but the handle.
func TestIndexTableFootprint(t *testing.T) {
	for _, s := range append(benchShapes(), edgeShapes()...) {
		tbl, _, _ := s.build(false)
		r := New(3)
		if allocs := testing.AllocsPerRun(1000, func() { tbl.Draw(r) }); allocs != 0 {
			t.Fatalf("%v: Draw allocates %.2f times", s, allocs)
		}
		noTable := s.alpha <= 0 || s.n == 1 || s.alpha != 1 && math.Abs(s.alpha-1) < 1e-6
		if noTable != (tbl.ent == nil) {
			t.Fatalf("%v: table built = %v, want %v", s, tbl.ent != nil, !noTable)
		}
		if noTable {
			if tbl.guide != nil {
				t.Fatalf("%v: a guide without a table", s)
			}
			z, p := NewZipf(s.n, s.alpha), NewPermuter(s.n, 1)
			if allocs := testing.AllocsPerRun(100, func() { NewIndexTable(z, p) }); allocs > 1 {
				t.Fatalf("%v: NewIndexTable allocates %.0f times for a shape it builds no table for", s, allocs)
			}
			continue
		}
		if int64(len(tbl.ent)) != s.n || cap(tbl.ent) != len(tbl.ent) || cap(tbl.guide) != len(tbl.guide) {
			t.Fatalf("%v: %d entries (cap %d), guide %d (cap %d)", s, len(tbl.ent), cap(tbl.ent), len(tbl.guide), cap(tbl.guide))
		}
		if bytes := 8*len(tbl.ent) + 4*len(tbl.guide); int64(bytes) > 10*s.n+64 {
			t.Fatalf("%v: %d bytes, budget is 10 per row + 64", s, bytes)
		}
	}
}

// FuzzIndexTableDraw is the differential contract over arbitrary shapes,
// skews (any bit pattern, NaN and ±Inf included) and seeds; the seed corpus
// runs under plain go test.
func FuzzIndexTableDraw(f *testing.F) {
	f.Add(uint32(7902), math.Float64bits(0.99593392345782028), uint64(42))
	f.Add(uint32(57271), math.Float64bits(0.73166621983342939), uint64(1729))
	f.Add(uint32(4043), math.Float64bits(1.2483328950489736), uint64(5))
	f.Add(uint32(1), math.Float64bits(1.1), uint64(1))
	f.Add(uint32(2), math.Float64bits(1), uint64(2))
	f.Add(uint32(70000), math.Float64bits(1+1e-5), uint64(3))
	f.Add(uint32(300), math.Float64bits(64.5), uint64(4))
	f.Add(uint32(1000), math.Float64bits(math.NaN()), uint64(6))
	f.Add(uint32(1000), math.Float64bits(math.Inf(1)), uint64(7))
	f.Add(uint32(5), math.Float64bits(-0.0), uint64(8))
	f.Fuzz(func(t *testing.T, n uint32, alphaBits, seed uint64) {
		s := indexShape{int64(n % (1 << 17)), math.Float64frombits(alphaBits)}
		tbl, z, p := s.build(seed&1 == 1)
		a := New(seed)
		b := *a
		for i := 0; i < 4000; i++ {
			if got, want := tbl.Draw(a), p.Map(z.Rank(&b)); got != want {
				t.Fatalf("%v draw %d: table %d, formula %d", s, i, got, want)
			}
		}
		if *a != b {
			t.Fatalf("%v: RNG states differ", s)
		}
	})
}
