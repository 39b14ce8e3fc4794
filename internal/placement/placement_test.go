package placement

import (
	"testing"

	"sdm/internal/embedding"
	"sdm/internal/model"
)

func testInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.TotalBytes = 1 << 24
	in, err := model.Build(cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSMOnlyDefault(t *testing.T) {
	in := testInstance(t)
	p, err := New(in, Config{Policy: SMOnlyWithCache, UserTablesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range in.Tables {
		if s.Kind == embedding.User && p.Target(i) != SM {
			t.Fatalf("user table %d not on SM", i)
		}
		if s.Kind == embedding.Item && p.Target(i) != FM {
			t.Fatalf("item table %d should stay in FM (UserTablesOnly)", i)
		}
		if p.Target(i) == SM && !p.CacheEnabled(i) {
			t.Fatalf("SM table %d should have cache enabled by default", i)
		}
	}
	if p.SMBytes == 0 || p.FMDirectBytes == 0 {
		t.Fatal("byte accounting empty")
	}
}

func TestAllTablesEligible(t *testing.T) {
	in := testInstance(t)
	p, err := New(in, Config{Policy: SMOnlyWithCache, UserTablesOnly: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Tables {
		if p.Target(i) != SM {
			t.Fatalf("table %d should be on SM when all tables are eligible", i)
		}
	}
}

func TestFixedFMBudgetRespected(t *testing.T) {
	in := testInstance(t)
	var userBytes int64
	for _, s := range in.UserTables() {
		userBytes += s.SizeBytes()
	}
	budget := userBytes / 3
	p, err := New(in, Config{Policy: FixedFMWithCache, UserTablesOnly: true, DRAMBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	var promoted int64
	for i, s := range in.Tables {
		if s.Kind == embedding.User && p.Target(i) == FM {
			promoted += s.SizeBytes()
		}
	}
	if promoted > budget {
		t.Fatalf("promoted %d bytes over budget %d", promoted, budget)
	}
	if promoted == 0 {
		t.Fatal("budget unused — promotion heuristic inert")
	}
}

func TestFixedFMPrefersHotPerByte(t *testing.T) {
	in := testInstance(t)
	// Find the user table with the highest BW/byte; a budget of exactly
	// its size should promote it.
	bw := in.BandwidthPerQuery()
	best, bestV := -1, 0.0
	for i, s := range in.Tables {
		if s.Kind != embedding.User {
			continue
		}
		v := bw[i] / float64(s.SizeBytes())
		if v > bestV {
			best, bestV = i, v
		}
	}
	p, err := New(in, Config{Policy: FixedFMWithCache, UserTablesOnly: true, DRAMBudget: in.Tables[best].SizeBytes()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Target(best) != FM {
		t.Fatalf("hottest-per-byte table %d not promoted", best)
	}
}

func TestDenyList(t *testing.T) {
	in := testInstance(t)
	p, err := New(in, Config{Policy: SMOnlyWithCache, UserTablesOnly: true, DenySM: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Target(0) != FM || p.Target(2) != FM {
		t.Fatal("deny-listed tables must stay in FM")
	}
	if _, err := New(in, Config{DenySM: []int{999}}); err == nil {
		t.Fatal("out-of-range deny entry should fail")
	}
}

func TestPerTableCacheEnablement(t *testing.T) {
	in := testInstance(t)
	// Force a table's alpha below the threshold.
	in.Tables[1].Alpha = 0.2
	p, err := New(in, Config{Policy: PerTableCache, UserTablesOnly: true, MinCacheAlpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheEnabled(1) {
		t.Fatal("low-locality SM table should bypass the cache")
	}
	foundCached := false
	for i := range in.Tables {
		if p.Target(i) == SM && p.CacheEnabled(i) {
			foundCached = true
		}
	}
	if !foundCached {
		t.Fatal("high-locality tables should keep the cache")
	}
}

func TestZeroDRAMBudget(t *testing.T) {
	// FixedFM with no budget degenerates to SM-only: nothing promotes,
	// nothing breaks.
	in := testInstance(t)
	p, err := New(in, Config{Policy: FixedFMWithCache, UserTablesOnly: true, DRAMBudget: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range in.Tables {
		if s.Kind == embedding.User && p.Target(i) != SM {
			t.Fatalf("user table %d promoted with zero budget", i)
		}
	}
}

func TestDenyListCoversEveryTable(t *testing.T) {
	in := testInstance(t)
	deny := make([]int, len(in.Tables))
	for i := range deny {
		deny[i] = i
	}
	p, err := New(in, Config{Policy: SMOnlyWithCache, DenySM: deny})
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Tables {
		if p.Target(i) == SM {
			t.Fatalf("fully denied plan still placed table %d on SM", i)
		}
	}
	if p.SMBytes != 0 {
		t.Fatalf("fully denied plan reports %d SM bytes", p.SMBytes)
	}
	var total int64
	for _, s := range in.Tables {
		total += s.SizeBytes()
	}
	if p.FMDirectBytes != total {
		t.Fatalf("FM bytes %d, want the whole model %d", p.FMDirectBytes, total)
	}
	for i, s := range in.Tables {
		if (Config{DenySM: deny}).EligibleSM(i, s.Kind) {
			t.Fatalf("denied table %d reported eligible", i)
		}
	}
}

func TestBudgetSmallerThanSmallestTable(t *testing.T) {
	in := testInstance(t)
	smallest := in.Tables[0].SizeBytes()
	for _, s := range in.Tables {
		if s.SizeBytes() < smallest {
			smallest = s.SizeBytes()
		}
	}
	p, err := New(in, Config{Policy: FixedFMWithCache, UserTablesOnly: true, DRAMBudget: smallest - 1})
	if err != nil {
		t.Fatal(err)
	}
	var promoted int64
	for i, s := range in.Tables {
		if s.Kind == embedding.User && p.Target(i) == FM {
			promoted += s.SizeBytes()
		}
	}
	if promoted != 0 {
		t.Fatalf("budget below the smallest table still promoted %d bytes", promoted)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []Policy{SMOnlyWithCache, FixedFMWithCache, PerTableCache} {
		if p.String() == "" {
			t.Errorf("empty name for %d", p)
		}
	}
	if FM.String() != "FM" || SM.String() != "SM" {
		t.Fatal("target names")
	}
}

func TestDefaultPolicy(t *testing.T) {
	in := testInstance(t)
	p, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.SMBytes == 0 {
		t.Fatal("default policy should place something on SM")
	}
}
