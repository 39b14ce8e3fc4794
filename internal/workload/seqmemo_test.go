package workload

import (
	"hash/fnv"
	"testing"
	"unsafe"

	"sdm/internal/model"
	"sdm/internal/xrand"
)

// referenceSequence is the oracle the sequence memo is checked against: the
// un-churned pool of (table, entity) at pooling factor pf, derived from
// nothing but the seed — the loop baseSequence ran on every draw before the
// memo existed.
func referenceSequence(inst *model.Instance, seed uint64, spatial bool, table int, entity int64, pf float64) []int64 {
	s := inst.Tables[table]
	rng := xrand.New(seed ^ uint64(entity)*0x9e3779b97f4a7c15 ^ uint64(s.ID)<<40)
	zipf := xrand.NewZipf(s.Rows, s.Alpha)
	perm := xrand.NewPermuter(s.Rows, seed^uint64(s.ID)<<17)
	perm.Identity = spatial
	n := int(pf * (0.5 + rng.Float64()))
	if n < 1 {
		n = 1
	}
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = perm.Map(zipf.Rank(rng))
	}
	return seq
}

// referenceQuery draws ref's next query the way NextShared did before the
// memo: the same draws from the shared RNG in the same order, every pool
// from referenceSequence. ref lends only its RNG and drift state.
func referenceQuery(ref *Generator) Query {
	user := ref.driftUser(ref.userZ.Rank(ref.rng))
	q := Query{UserID: user}
	if ref.cfg.SLOClasses > 1 {
		q.Class = UserPartition(user, ref.cfg.SLOClasses)
	}
	for t, s := range ref.inst.Tables {
		isUser := t < ref.inst.Config.NumUserTables
		boost := ref.tableBoost(t)
		batch := ref.inst.Config.ItemBatch
		if isUser && !ref.cfg.EvalMode {
			batch = 1
		}
		op := TableOp{Table: t}
		for b := 0; b < batch; b++ {
			var entity int64
			switch {
			case !isUser:
				entity = ref.driftItem(ref.itemZ.Rank(ref.rng))
			case b > 0:
				entity = ref.driftUser(ref.userZ.Rank(ref.rng))
			default:
				entity = user
			}
			churn := ref.cfg.SeqChurn > 0 && ref.rng.Float64() < ref.cfg.SeqChurn
			seq := referenceSequence(ref.inst, ref.cfg.Seed, ref.cfg.Spatial, t, entity, s.PoolingFactor*boost)
			if churn {
				// Its own sampler and permuter, as in referenceSequence: the
				// oracle shares nothing with the generator's index tables.
				perm := xrand.NewPermuter(s.Rows, ref.cfg.Seed^uint64(s.ID)<<17)
				perm.Identity = ref.cfg.Spatial
				seq[ref.rng.Intn(len(seq))] = perm.Map(xrand.NewZipf(s.Rows, s.Alpha).Rank(ref.rng))
			}
			op.Pools = append(op.Pools, seq)
		}
		q.Ops = append(q.Ops, op)
	}
	ref.queries++
	return q
}

// sameQuery reports the first difference between a generated query and the
// reference's.
func sameQuery(t *testing.T, i int, got, want Query) {
	t.Helper()
	if got.UserID != want.UserID || got.Class != want.Class || len(got.Ops) != len(want.Ops) {
		t.Fatalf("query %d: user/class/ops %d/%d/%d, want %d/%d/%d", i,
			got.UserID, got.Class, len(got.Ops), want.UserID, want.Class, len(want.Ops))
	}
	for o, op := range got.Ops {
		if op.Table != want.Ops[o].Table || len(op.Pools) != len(want.Ops[o].Pools) {
			t.Fatalf("query %d op %d: shape differs from the reference", i, o)
		}
		for p, pool := range op.Pools {
			ref := want.Ops[o].Pools[p]
			if len(pool) != len(ref) {
				t.Fatalf("query %d table %d pool %d: %d indices, reference has %d", i, op.Table, p, len(pool), len(ref))
			}
			for k, idx := range pool {
				if idx != ref[k] {
					t.Fatalf("query %d table %d pool %d index %d: %d, reference has %d", i, op.Table, p, k, idx, ref[k])
				}
			}
		}
	}
}

// streamDigest folds every field of every query into one FNV-1a hash.
func streamDigest(n int, next func() Query) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < n; i++ {
		q := next()
		put(q.UserID)
		put(int64(q.Class))
		for _, op := range q.Ops {
			put(int64(op.Table))
			for _, pool := range op.Pools {
				put(int64(len(pool)))
				for _, idx := range pool {
					put(idx)
				}
			}
		}
	}
	return h.Sum64()
}

// memoInstance is small enough that 50 000 queries and their reference
// take about a second, with pools long enough to be worth keeping.
func memoInstance(t *testing.T) *model.Instance {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables = 4
	cfg.NumItemTables = 2
	cfg.ItemBatch = 4
	cfg.TotalBytes = 1 << 21
	in, err := model.Build(cfg, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSequenceMemoMatchesReference is the memo's validity contract: under
// every stream shape the generator has, each pool of each query equals the
// pool derived from scratch, while the memo is hitting, colliding and
// re-installing underneath.
func TestSequenceMemoMatchesReference(t *testing.T) {
	in := memoInstance(t)
	drift := DriftConfig{PhaseQueries: 3000, HotTables: 2, HotItemTables: 1}
	cases := []struct {
		name    string
		cfg     Config
		queries int
		rotate  int // ForceRotation before this query (0 = never)
	}{
		{name: "stationary", cfg: Config{Seed: 3, NumUsers: 3000, UserAlpha: 0.8, SLOClasses: 2}, queries: 12000},
		{name: "churn", cfg: Config{Seed: 5, NumUsers: 3000, UserAlpha: 0.8, SeqChurn: 0.3}, queries: 50000},
		{name: "drift", cfg: Config{Seed: 7, NumUsers: 3000, UserAlpha: 0.8, SeqChurn: 0.1, Drift: drift}, queries: 12000, rotate: 7000},
		{name: "eval", cfg: Config{Seed: 9, NumUsers: 3000, UserAlpha: 0.8, EvalMode: true}, queries: 6000},
		{name: "spatial", cfg: Config{Seed: 11, NumUsers: 3000, UserAlpha: 0.8, Spatial: true}, queries: 3000},
		// Populations several times the slot count, skewed enough that hot
		// entities are installed, evicted by a colliding one and drawn again.
		{name: "crowded", cfg: Config{Seed: 13, NumUsers: 60000, UserAlpha: 0.9}, queries: 12000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, ref := newGen(t, in, c.cfg), newGen(t, in, c.cfg)
			for i := 0; i < c.queries; i++ {
				if c.rotate > 0 && i == c.rotate {
					g.ForceRotation()
					ref.ForceRotation()
				}
				sameQuery(t, i, g.NextShared(), referenceQuery(ref))
			}
			hits, pools := g.MemoStats()
			t.Logf("memo served %d of %d pools (%.1f %%)", hits, pools, 100*float64(hits)/float64(pools))
			if hits*4 < pools {
				t.Fatalf("memo served %d of %d pools: the case barely exercises it", hits, pools)
			}
			if c.name != "crowded" {
				return
			}
			for tb, m := range g.memo {
				if int64(len(m.slots))*5 > c.cfg.NumUsers {
					t.Fatalf("table %d has %d slots for %d entities: too few collisions", tb, len(m.slots), c.cfg.NumUsers)
				}
			}
		})
	}
}

// TestChurnStreamPinned pins the SeqChurn stream to the digest the parent
// commit (before the memo) produced for the same config through Next: churn
// draws from the shared RNG, so a memo that perturbed it would move every
// later query.
func TestChurnStreamPinned(t *testing.T) {
	const parentDigest = 0xc26ddecb5c5e3e47
	g := newGen(t, memoInstance(t), Config{Seed: 5, NumUsers: 3000, UserAlpha: 0.8, SeqChurn: 0.3})
	if got := streamDigest(50000, g.Next); got != parentDigest {
		t.Fatalf("churn stream digest %#x, parent commit produced %#x", got, uint64(parentDigest))
	}
}

// TestSequenceMemoFootprint holds the memo to its constant: everything is
// allocated by NewGenerator, within seqMemoBytes, whatever the model.
func TestSequenceMemoFootprint(t *testing.T) {
	if got := unsafe.Sizeof(seqSlot{}); got != seqSlotBytes {
		t.Fatalf("seqSlot is %d bytes, seqSlotBytes says %d", got, seqSlotBytes)
	}
	for _, in := range []*model.Instance{memoInstance(t), smallInstance(t), driftInstance(t)} {
		g := newGen(t, in, Config{Seed: 1})
		bytes := 0
		for _, m := range g.memo {
			bytes += seqSlotBytes*len(m.slots) + 4*len(m.idx)
			if len(m.idx) != len(m.slots)*m.stride {
				t.Fatalf("memo index storage %d for %d slots of stride %d", len(m.idx), len(m.slots), m.stride)
			}
		}
		if bytes > seqMemoBytes || bytes < seqMemoBytes*9/10 {
			t.Fatalf("memo holds %d bytes, want within the last tenth of %d", bytes, seqMemoBytes)
		}
	}
}

// TestNextSharedZeroAllocs pins the zero-allocation contract of the draw
// path with the memo warm, stationary and under hot-set rotation.
func TestNextSharedZeroAllocs(t *testing.T) {
	in := memoInstance(t)
	for name, cfg := range map[string]Config{
		"stationary": {Seed: 3, NumUsers: 3000, UserAlpha: 0.8, SeqChurn: 0.1},
		"drift":      {Seed: 3, NumUsers: 3000, UserAlpha: 0.8, Drift: DriftConfig{PhaseQueries: 500, HotTables: 2}},
	} {
		g := newGen(t, in, cfg)
		for i := 0; i < 2000; i++ {
			g.NextShared()
		}
		if allocs := testing.AllocsPerRun(500, func() { g.NextShared() }); allocs != 0 {
			t.Errorf("%s: NextShared allocates %.2f times per query after warm-up, want 0", name, allocs)
		}
	}
}
