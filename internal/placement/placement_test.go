package placement

import (
	"reflect"
	"sort"
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

// equalTables returns an instance whose n user tables share one spec, so
// their demand densities tie exactly, followed by one small hot item table.
func equalTables(t *testing.T, n int) *model.Instance {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = n
	cfg.NumItemTables = 1
	cfg.TotalBytes = 1 << 24
	in, err := model.Build(cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= n; i++ {
		in.Tables[i].Rows, in.Tables[i].Dim, in.Tables[i].QType, in.Tables[i].PoolingFactor = 1024, 64, in.Tables[0].QType, 8
	}
	in.Tables[n].Rows = 64
	return in
}

func fmTables(p *Plan) []int {
	var out []int
	for _, d := range p.Decisions {
		if d.Target == FM {
			out = append(out, d.Table)
		}
	}
	return out
}

func TestFixedFMMatchesPackRangesWear(t *testing.T) {
	// New's greedy is PackRangesWear over whole-table items: after the hot
	// table 13, 13 equal-density equal-size tables and a budget for three
	// of them promote tables 0, 1, 2 — the packer's (Table, Range)
	// tie-break. The sort.Slice this replaced had none, and pdqsort's
	// partitioning around table 13 left the ties as 6, 2, 3.
	const n = 13
	in := equalTables(t, n)
	sz := in.Tables[0].SizeBytes()
	cfg := Config{Policy: FixedFMWithCache, DRAMBudget: in.Tables[n].SizeBytes() + 3*sz + sz/2}
	p, err := New(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmTables(p); !reflect.DeepEqual(got, []int{0, 1, 2, n}) {
		t.Fatalf("FM tables %v, want [0 1 2 %d]", got, n)
	}
	// And on a non-degenerate instance the plan is the packer's, item for item.
	in = testInstance(t)
	bw := in.BandwidthPerQuery()
	var items []RangeItem
	for i, s := range in.Tables {
		items = append(items, RangeItem{Table: i, Range: WholeTable, Bytes: s.SizeBytes(), Density: bw[i] / float64(s.SizeBytes())})
	}
	cfg.DRAMBudget = in.Tables[0].SizeBytes() + in.Tables[3].SizeBytes() + in.Tables[5].SizeBytes()
	if p, err = New(in, cfg); err != nil {
		t.Fatal(err)
	}
	want := PackRangesWear(items, cfg.DRAMBudget, WearBudget{})
	sort.Ints(want)
	if got := fmTables(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("New promoted tables %v, PackRangesWear selected %v", got, want)
	}
}

func TestFixedFMNeverPromotesZeroDensity(t *testing.T) {
	// A table nothing looks up (PoolingFactor 0: embedding.Spec.Validate
	// allows it) has zero demand density; the shared packer never selects a
	// zero-score item, so it stays on SM even when it fits the budget.
	in := equalTables(t, 4)
	in.Tables[2].PoolingFactor = 0
	p, err := New(in, Config{Policy: FixedFMWithCache, DRAMBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmTables(p); !reflect.DeepEqual(got, []int{0, 1, 3, 4}) {
		t.Fatalf("FM tables %v, want [0 1 3 4] (table 2 has no demand)", got)
	}
}
