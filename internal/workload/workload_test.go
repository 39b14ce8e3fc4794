package workload

import (
	"math"
	"slices"
	"strings"
	"testing"

	"sdm/internal/embedding"
	"sdm/internal/model"
)

func smallInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 3
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 22
	in, err := model.Build(cfg, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func newGen(t *testing.T, in *model.Instance, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratedIndicesValid(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 1})
	qs := g.GenerateTrace(200)
	if err := Validate(in, qs); err != nil {
		t.Fatal(err)
	}
}

func TestQueryShape(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 2})
	q := g.Next()
	if len(q.Ops) != len(in.Tables) {
		t.Fatalf("ops %d, want %d", len(q.Ops), len(in.Tables))
	}
	for i, op := range q.Ops {
		wantPools := 1
		if i >= in.Config.NumUserTables {
			wantPools = in.Config.ItemBatch
		}
		if len(op.Pools) != wantPools {
			t.Fatalf("op %d pools %d, want %d (B_U=1, B_I=batch)", i, len(op.Pools), wantPools)
		}
		for _, p := range op.Pools {
			if len(p) == 0 {
				t.Fatalf("op %d has empty pool", i)
			}
		}
	}
	if q.Lookups() == 0 {
		t.Fatal("query must perform lookups")
	}
}

func TestEvalModeBatchesUserSide(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 3, EvalMode: true})
	q := g.Next()
	// Table 2: InferenceEval has user batch == item batch > 1.
	if len(q.Ops[0].Pools) != in.Config.ItemBatch {
		t.Fatalf("eval user pools %d, want %d", len(q.Ops[0].Pools), in.Config.ItemBatch)
	}
}

func TestDeterministicTrace(t *testing.T) {
	in := smallInstance(t)
	a := newGen(t, in, Config{Seed: 5}).GenerateTrace(50)
	b := newGen(t, in, Config{Seed: 5}).GenerateTrace(50)
	for i := range a {
		if a[i].UserID != b[i].UserID {
			t.Fatal("same seed must replay identically")
		}
	}
}

func TestUserSequenceStability(t *testing.T) {
	// The same user's base sequence for a table must repeat across
	// queries (the source of pooled-cache hits) when churn is zero.
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 7, NumUsers: 3, UserAlpha: 0.1})
	seqs := make(map[int64][]int64)
	for i := 0; i < 60; i++ {
		q := g.Next()
		prev, ok := seqs[q.UserID]
		cur := q.Ops[0].Pools[0]
		if ok {
			if len(prev) != len(cur) {
				t.Fatal("user sequence length changed without churn")
			}
			for j := range prev {
				if prev[j] != cur[j] {
					t.Fatal("user sequence changed without churn")
				}
			}
		} else {
			seqs[q.UserID] = append([]int64(nil), cur...)
		}
	}
	if len(seqs) < 2 {
		t.Fatal("expected multiple users")
	}
}

func TestChurnBreaksSequences(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 9, NumUsers: 2, SeqChurn: 1.0})
	changed := false
	var prev []int64
	for i := 0; i < 50 && !changed; i++ {
		q := g.Next()
		if q.UserID != 0 {
			continue
		}
		cur := q.Ops[0].Pools[0]
		if prev != nil && len(prev) == len(cur) {
			for j := range prev {
				if prev[j] != cur[j] {
					changed = true
				}
			}
		}
		prev = append(prev[:0], cur...)
	}
	if !changed {
		t.Fatal("full churn should perturb sequences")
	}
}

func TestTemporalLocalityPowerLaw(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 13})
	qs := g.GenerateTrace(400)
	results := TemporalLocality(in, qs, 100)
	if len(results) == 0 {
		t.Fatal("no tables crossed the access threshold")
	}
	avg := AverageCDF(results, 0)
	if len(avg) != len(CDFFractions) {
		t.Fatalf("CDF points %d", len(avg))
	}
	// Power law: 10% of rows must cover far more than 10% of accesses.
	var at10 float64
	for _, p := range avg {
		if p.X == 0.1 {
			at10 = p.Frac
		}
	}
	if at10 < 0.3 {
		t.Fatalf("top 10%% of rows covers %.0f%%, want power-law concentration", at10*100)
	}
}

func TestItemsMoreLocalThanUsers(t *testing.T) {
	// Fig. 4: item embeddings show more temporal locality than user
	// embeddings (the model configs encode higher item alphas).
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 17})
	qs := g.GenerateTrace(600)
	results := TemporalLocality(in, qs, 200)
	user := AverageCDF(results, embedding.User)
	item := AverageCDF(results, embedding.Item)
	if user == nil || item == nil {
		t.Fatal("missing group CDFs")
	}
	// Compare coverage at the 5% row fraction.
	var u5, i5 float64
	for k := range user {
		if user[k].X == 0.05 {
			u5, i5 = user[k].Frac, item[k].Frac
		}
	}
	if i5 <= u5 {
		t.Fatalf("item locality %.2f should exceed user %.2f", i5, u5)
	}
}

func TestSpatialLocalityLowWhenScattered(t *testing.T) {
	// Larger tables and a short trace keep the accessed set sparse, so
	// block sharing reflects layout rather than full-table saturation.
	cfg := model.M1()
	cfg.NumUserTables = 4
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 28
	in, err := model.Build(cfg, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	scattered := newGen(t, in, Config{Seed: 19})
	packed := newGen(t, in, Config{Seed: 19, Spatial: true})
	qsS := scattered.GenerateTrace(300)
	qsP := packed.GenerateTrace(300)
	locS := SpatialLocality(in, qsS, 4096)
	locP := SpatialLocality(in, qsP, 4096)
	if len(locS) == 0 || len(locP) == 0 {
		t.Fatal("no spatial results")
	}
	var avgS, avgP float64
	for _, r := range locS {
		avgS += r.Locality
	}
	avgS /= float64(len(locS))
	for _, r := range locP {
		avgP += r.Locality
	}
	avgP /= float64(len(locP))
	// Fig. 5: production accesses show low spatial locality (scattered);
	// identity mapping concentrates hot rows into shared blocks.
	if avgS >= avgP {
		t.Fatalf("scattered locality %.3f should be below packed %.3f", avgS, avgP)
	}
	if avgS > 0.6 {
		t.Fatalf("scattered locality %.3f too high for the Fig. 5 regime", avgS)
	}
}

func TestStickyRoutingRaisesPerHostLocality(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 23, NumUsers: 2000, UserAlpha: 0.8})
	qs := g.GenerateTrace(1500)
	sticky := PerHostTemporalLocality(in, qs, 8)
	rr := TemporalLocality(in, roundRobinShare(qs, 8), 1)
	sAvg := AverageCDF(sticky, embedding.User)
	rAvg := AverageCDF(rr, embedding.User)
	if sAvg == nil || rAvg == nil {
		t.Skip("not enough per-host traffic in fixture")
	}
	var s10, r10 float64
	for k := range sAvg {
		if sAvg[k].X == 0.1 {
			s10, r10 = sAvg[k].Frac, rAvg[k].Frac
		}
	}
	// Fig. 4c: per-host locality under sticky routing ≥ random routing.
	if s10+0.02 < r10 {
		t.Fatalf("sticky per-host locality %.3f below round-robin %.3f", s10, r10)
	}
}

func TestValidateCatchesBadIndex(t *testing.T) {
	in := smallInstance(t)
	qs := []Query{{Ops: []TableOp{{Table: 0, Pools: [][]int64{{in.Tables[0].Rows}}}}}}
	if err := Validate(in, qs); err == nil {
		t.Fatal("out-of-range index must fail validation")
	}
	qs = []Query{{Ops: []TableOp{{Table: 99, Pools: [][]int64{{0}}}}}}
	if err := Validate(in, qs); err == nil {
		t.Fatal("out-of-range table must fail validation")
	}
}

func TestGeneratorDefaults(t *testing.T) {
	in := smallInstance(t)
	g := newGen(t, in, Config{})
	c := g.cfg
	if c.NumUsers <= 0 || c.UserAlpha == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if g.inst != in {
		t.Fatal("instance accessor")
	}
}

func TestSLOClassTagging(t *testing.T) {
	in := smallInstance(t)

	// Class tagging draws nothing from the stream RNG: the tagged stream
	// is the untagged stream plus labels.
	base := newGen(t, in, Config{Seed: 9, NumUsers: 500}).GenerateTrace(300)
	tagged := newGen(t, in, Config{Seed: 9, NumUsers: 500, SLOClasses: 3}).GenerateTrace(300)
	seen := make(map[int]int)
	for i := range base {
		if base[i].UserID != tagged[i].UserID {
			t.Fatalf("query %d: user %d != %d — class tagging perturbed the stream", i, base[i].UserID, tagged[i].UserID)
		}
		if base[i].Class != 0 {
			t.Fatalf("query %d: untagged stream has class %d", i, base[i].Class)
		}
		c := tagged[i].Class
		if c < 0 || c >= 3 {
			t.Fatalf("query %d: class %d out of [0, 3)", i, c)
		}
		if c != UserPartition(tagged[i].UserID, 3) {
			t.Fatalf("query %d: class %d is not the sticky user partition", i, c)
		}
		seen[c]++
	}
	if len(seen) < 2 {
		t.Fatalf("300 queries over 500 users landed in %d class(es): %v", len(seen), seen)
	}
	// SLOClasses <= 1 leaves everything in class 0; negative is rejected.
	if q := newGen(t, in, Config{Seed: 9, SLOClasses: 1}).Next(); q.Class != 0 {
		t.Fatalf("SLOClasses=1 tagged class %d", q.Class)
	}
	if _, err := NewGenerator(in, Config{SLOClasses: -1}); err == nil {
		t.Fatal("negative SLOClasses should be rejected")
	}
}

// TestNonFiniteSkewRejected: a NaN or infinite skew, probability or pooling
// factor used to be accepted everywhere and collapse the stream onto one row
// (Rank clamps int64(NaN) to rank 0). Every such field is refused by name;
// a negative skew keeps its meaning (uniform).
func TestNonFiniteSkewRejected(t *testing.T) {
	in := smallInstance(t)
	fields := []struct {
		name string
		set  func(*Config, *embedding.Spec, float64)
	}{
		{"UserAlpha", func(c *Config, _ *embedding.Spec, v float64) { c.UserAlpha = v }},
		{"SeqChurn", func(c *Config, _ *embedding.Spec, v float64) { c.SeqChurn = v }},
		{"HotBoost", func(c *Config, _ *embedding.Spec, v float64) { c.Drift.HotBoost = v }},
		{"ColdShrink", func(c *Config, _ *embedding.Spec, v float64) { c.Drift.ColdShrink = v }},
		{"Alpha", func(_ *Config, s *embedding.Spec, v float64) { s.Alpha = v }},
		{"PoolingFactor", func(_ *Config, s *embedding.Spec, v float64) { s.PoolingFactor = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			hostile := *in
			hostile.Tables = slices.Clone(in.Tables)
			cfg := Config{Seed: 1}
			f.set(&cfg, &hostile.Tables[2], v)
			_, err := NewGenerator(&hostile, cfg)
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %v, want one naming the field", f.name, v, err)
			}
		}
	}
	uniform := *in
	uniform.Tables = slices.Clone(in.Tables)
	uniform.Tables[2].Alpha = -1
	g := newGen(t, &uniform, Config{Seed: 1, UserAlpha: -1})
	if err := Validate(&uniform, g.GenerateTrace(50)); err != nil {
		t.Fatal(err)
	}
}
