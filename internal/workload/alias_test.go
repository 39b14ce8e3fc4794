package workload

import (
	"reflect"
	"testing"

	"sdm/internal/model"
)

func aliasGen(t *testing.T) *Generator {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 3
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 20
	in, err := model.Build(cfg, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(in, Config{Seed: 11, NumUsers: 200, UserAlpha: 0.8, SeqChurn: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// warmMemo draws until most pools come out of the sequence memo, so the
// aliasing tests below exercise the copy-from-memo path as well as the
// derive-and-install path.
func warmMemo(t *testing.T, g *Generator) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		g.NextShared()
	}
	if hits, pools := g.MemoStats(); hits*2 < pools {
		t.Fatalf("memo served %d of %d warm-up pools, want most of them", hits, pools)
	}
}

// TestNextSharedDeepCopySurvivesReuse is the aliasing regression test for
// the arena-backed generator: a deep copy of a NextShared query (via
// Query.Clone or a recycled QueryBuf — the fleet front-end's hand-off
// path) must stay intact while subsequent draws overwrite the arena —
// first with a cold sequence memo, then with a warm one.
func TestNextSharedDeepCopySurvivesReuse(t *testing.T) {
	g := aliasGen(t)
	for i := 0; i < 40; i++ {
		if i == 20 {
			warmMemo(t, g)
		}
		q := g.NextShared()
		snapshot := q.Clone()
		var buf QueryBuf
		buf.CopyFrom(q)
		// Overwrite the arena several times; the copies must not move.
		for j := 0; j < 5; j++ {
			g.NextShared()
		}
		if !reflect.DeepEqual(buf.Q, snapshot) {
			t.Fatalf("draw %d: QueryBuf copy corrupted by later NextShared calls", i)
		}
		// A recycled buffer must also hold a fresh copy correctly after
		// reuse (the fleet free-list path).
		q2 := g.NextShared()
		snap2 := q2.Clone()
		buf.CopyFrom(q2)
		g.NextShared()
		if !reflect.DeepEqual(buf.Q, snap2) {
			t.Fatalf("draw %d: recycled QueryBuf copy corrupted", i)
		}
	}
}

// TestNextSharedMatchesNext verifies the arena path draws the exact same
// query stream as the allocating path: generation is a pure function of
// the seed, independent of which API the caller picks, with the sequence
// memo cold (first half) and warm (second half).
func TestNextSharedMatchesNext(t *testing.T) {
	a, b := aliasGen(t), aliasGen(t)
	for i := 0; i < 100; i++ {
		if i == 50 {
			warmMemo(t, a)
			for j := 0; j < 1000; j++ {
				b.Next()
			}
		}
		qa := a.NextShared().Clone()
		qb := b.Next()
		if !reflect.DeepEqual(qa, qb) {
			t.Fatalf("query %d: NextShared stream diverges from Next", i)
		}
	}
}
