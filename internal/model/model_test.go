package model

import (
	"math"
	"strings"
	"testing"

	"sdm/internal/embedding"
)

func TestTable6Shapes(t *testing.T) {
	cases := []struct {
		cfg        Config
		user, item int
		itemBatch  int
	}{
		{M1(), 61, 30, 50},
		{M2(), 450, 280, 150},
		{M3(), 1800, 900, 1000},
	}
	for _, c := range cases {
		if c.cfg.NumUserTables != c.user || c.cfg.NumItemTables != c.item {
			t.Errorf("%s: table counts %d/%d, want %d/%d",
				c.cfg.Name, c.cfg.NumUserTables, c.cfg.NumItemTables, c.user, c.item)
		}
		if c.cfg.ItemBatch != c.itemBatch {
			t.Errorf("%s: item batch %d, want %d", c.cfg.Name, c.cfg.ItemBatch, c.itemBatch)
		}
		if c.cfg.UserBatch != 1 {
			t.Errorf("%s: user batch must be 1 for inference (§2.2)", c.cfg.Name)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := M1()
	bad.TotalBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero size should fail")
	}
	bad = M1()
	bad.NumUserTables, bad.NumItemTables = 0, 0
	if err := bad.Validate(); err == nil {
		t.Error("no tables should fail")
	}
	bad = M1()
	bad.UserCapacityFrac = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("capacity frac > 1 should fail")
	}
	bad = M1()
	bad.ItemBatch = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero item batch should fail")
	}
	// Fractions outside [0, 1] are refused by field name; NaN passes any
	// "< 0 || > 1" check, so it is a row of its own.
	for _, v := range []float64{math.NaN(), -0.1, 2, math.Inf(1)} {
		for _, f := range []struct {
			name string
			set  func(*Config)
		}{
			{"UserCapacityFrac", func(c *Config) { c.UserCapacityFrac = v }},
			{"ZeroFrac", func(c *Config) { c.ZeroFrac = v }},
		} {
			bad = M1()
			f.set(&bad)
			if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %v, want one naming %s", f.name, v, err, f.name)
			}
		}
	}
	ok := M1()
	ok.UserCapacityFrac, ok.ZeroFrac = 1, 1
	if err := ok.Validate(); err != nil {
		t.Errorf("fractions of 1 rejected: %v", err)
	}
}

func TestBuildScaleBounds(t *testing.T) {
	if _, err := Build(M1(), 0, 1); err == nil {
		t.Error("scale 0 should fail")
	}
	for _, scale := range []float64{2, math.NaN(), math.Inf(1)} {
		if _, err := Build(M1(), scale, 1); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v: error %v, want one naming scale", scale, err)
		}
	}
}

func TestBuildScaledCapacity(t *testing.T) {
	const scale = 1e-5
	in, err := Build(M1(), scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Tables) != 91 {
		t.Fatalf("tables %d, want 91", len(in.Tables))
	}
	total := in.TotalBytes()
	target := float64(M1().TotalBytes) * scale
	if math.Abs(float64(total)-target)/target > 0.5 {
		t.Fatalf("scaled capacity %d, want ≈%g", total, target)
	}
	// §2.2: user tables carry the majority of capacity.
	userFrac := float64(in.UserBytes()) / float64(total)
	if userFrac < 0.55 || userFrac > 0.85 {
		t.Fatalf("user capacity fraction %.2f, want ≈0.70", userFrac)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(M2(), 1e-6, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(M2(), 1e-6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			t.Fatalf("table %d differs across builds with the same seed", i)
		}
	}
}

func TestBuildSpecsValid(t *testing.T) {
	in, err := Build(M2(), 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := M2()
	for i, s := range in.Tables {
		if err := s.Validate(); err != nil {
			t.Fatalf("table %d: %v", i, err)
		}
		wantKind := embedding.User
		dims := cfg.UserDimBytes
		if i >= cfg.NumUserTables {
			wantKind = embedding.Item
			dims = cfg.ItemDimBytes
		}
		if s.Kind != wantKind {
			t.Fatalf("table %d kind %v", i, s.Kind)
		}
		if rb := s.RowBytes(); rb < dims.Min-8 || rb > dims.Max+8 {
			t.Fatalf("table %d row bytes %d outside [%d,%d]", i, rb, dims.Min, dims.Max)
		}
		if s.Alpha < 0.5 || s.Alpha > 1.5 {
			t.Fatalf("table %d alpha %g out of band", i, s.Alpha)
		}
	}
}

func TestCapacitySkew(t *testing.T) {
	// Fig. 1: a minority of tables should hold the majority of capacity.
	in, err := Build(Fig1Model(), 1e-5, 9)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, len(in.Tables))
	var total int64
	for i, s := range in.Tables {
		sizes[i] = s.SizeBytes()
		total += sizes[i]
	}
	// Top 20% of tables by size.
	top := int64(0)
	n := len(sizes) / 5
	for i := 0; i < n; i++ {
		// selection of max
		best := 0
		for j := range sizes {
			if sizes[j] > sizes[best] {
				best = j
			}
		}
		top += sizes[best]
		sizes[best] = -1
	}
	if frac := float64(top) / float64(total); frac < 0.5 {
		t.Fatalf("top-20%% tables hold %.0f%% of capacity, want majority", frac*100)
	}
}

func TestMaterializeSmall(t *testing.T) {
	in, err := Build(M1(), 2e-7, 5)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := in.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(in.Tables) {
		t.Fatal("table count mismatch")
	}
	for i, tb := range tables {
		if tb.Spec().Rows != in.Tables[i].Rows {
			t.Fatalf("table %d rows mismatch", i)
		}
	}
}

func TestBandwidthPerQuery(t *testing.T) {
	in, err := Build(M1(), 1e-6, 5)
	if err != nil {
		t.Fatal(err)
	}
	bw := in.BandwidthPerQuery()
	cfg := in.Config
	// Item tables must be amplified by the item batch (Eq. 2).
	u := in.Tables[0]
	it := in.Tables[cfg.NumUserTables]
	wantU := u.PoolingFactor * float64(u.RowBytes())
	wantI := float64(cfg.ItemBatch) * it.PoolingFactor * float64(it.RowBytes())
	if math.Abs(bw[0]-wantU) > 1e-9 {
		t.Fatalf("user bw %g want %g", bw[0], wantU)
	}
	if math.Abs(bw[cfg.NumUserTables]-wantI) > 1e-9 {
		t.Fatalf("item bw %g want %g", bw[cfg.NumUserTables], wantI)
	}
}

func TestFig1ModelShape(t *testing.T) {
	cfg := Fig1Model()
	if cfg.NumUserTables != 445 {
		t.Fatalf("Fig1 user tables %d, want 445", cfg.NumUserTables)
	}
	if cfg.NumUserTables+cfg.NumItemTables != 734 {
		t.Fatalf("Fig1 total tables %d, want 734", cfg.NumUserTables+cfg.NumItemTables)
	}
	userGB := float64(cfg.TotalBytes) * cfg.UserCapacityFrac / (1 << 30)
	if math.Abs(userGB-100) > 1 {
		t.Fatalf("Fig1 user capacity %.0f GB, want 100", userGB)
	}
}

func TestMLPWidths(t *testing.T) {
	in, err := Build(M1(), 1e-6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.MLPWidths) != M1().NumMLPLayers+1 {
		t.Fatalf("MLP widths %d", len(in.MLPWidths))
	}
	if in.MLPWidths[len(in.MLPWidths)-1] != 1 {
		t.Fatal("final output must be the CTR logit")
	}
}
