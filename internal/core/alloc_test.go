package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// TestSteadyStateQueryAllocs pins the allocation budget of the warm query
// path. After the arena, caches, scratch and result buffers reach steady
// state, a query allocates nothing at any Parallelism setting — the whole
// chain (NextShared, OutputsFor, PoolQuery with deferred-IO replay) runs
// on recycled storage, on the calling goroutine.
func TestSteadyStateQueryAllocs(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) {
			in, tables := fixture(t)
			cfg := Config{
				Seed: 7, SMTech: blockdev.NandFlash,
				Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
				Parallelism: p,
			}
			s := openStore(t, in, tables, cfg)
			gen, err := workload.NewGenerator(in, workload.Config{Seed: 7, NumUsers: 500, UserAlpha: 0.8})
			if err != nil {
				t.Fatal(err)
			}
			var obuf OutputBuf
			now := s.LoadDone()
			step := func() {
				now += simclock.Time(time.Millisecond)
				q := gen.NextShared()
				outs := s.OutputsFor(q, &obuf)
				if _, err := s.PoolQuery(now, q, outs); err != nil {
					t.Fatal(err)
				}
			}
			// Warm to steady state: caches filled, every reusable buffer at
			// its high-water size.
			for i := 0; i < 3000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(500, step); avg > 0 {
				t.Fatalf("steady-state query allocates %.2f objects/run, want 0", avg)
			}
		})
	}
}

// TestOpenReplicaMatchesOpen verifies the construction-sharing fast path:
// a replica opened from a donor must match a full Open with the same
// config bit for bit — load completion time, stats, device state and every
// query observable — with only the construction cost differing.
func TestOpenReplicaMatchesOpen(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{
		Seed: 3, SMTech: blockdev.NandFlash,
		Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
	}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Seed = 9
	replica, err := OpenReplica(donor, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(in, tables, rcfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := replica.LoadDone(), fresh.LoadDone(); got != want {
		t.Fatalf("replica LoadDone %v, fresh Open %v", got, want)
	}
	if got, want := replica.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load store stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}
	if got, want := replica.DeviceStats(), fresh.DeviceStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-load device stats diverge:\nreplica %+v\nfresh   %+v", got, want)
	}

	// Same trace through both stores: every per-query result, all final
	// stats and every pooled output must match exactly.
	qs := trace(t, in, 40, 123)
	run := func(s *Store) ([]QueryResult, Stats, blockdev.Stats, uring.Stats, float64) {
		results := make([]QueryResult, 0, len(qs))
		sum := 0.0
		now := s.LoadDone()
		for _, q := range qs {
			outs := s.AllocOutputs(q)
			res, err := s.PoolQuery(now, q, outs)
			if err != nil {
				t.Fatal(err)
			}
			now = res.UserIODone
			results = append(results, res)
			for _, op := range outs {
				for _, pool := range op {
					for _, v := range pool {
						sum += float64(v)
					}
				}
			}
		}
		return results, s.Stats(), s.DeviceStats(), s.RingStats(), sum
	}
	rRes, rStats, rDev, rRing, rSum := run(replica)
	fRes, fStats, fDev, fRing, fSum := run(fresh)
	if !reflect.DeepEqual(rRes, fRes) {
		t.Fatal("per-query results diverge between replica and fresh Open")
	}
	if !reflect.DeepEqual(rStats, fStats) {
		t.Fatalf("store stats diverge:\nreplica %+v\nfresh   %+v", rStats, fStats)
	}
	if !reflect.DeepEqual(rDev, fDev) {
		t.Fatalf("device stats diverge:\nreplica %+v\nfresh   %+v", rDev, fDev)
	}
	if !reflect.DeepEqual(rRing, fRing) {
		t.Fatalf("ring stats diverge:\nreplica %+v\nfresh   %+v", rRing, fRing)
	}
	if rSum != fSum {
		t.Fatalf("output checksums diverge: replica %g, fresh %g", rSum, fSum)
	}

	// The donor must be untouched by replica construction and replica
	// queries: its own run still matches a pristine store with its seed.
	pristine, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dRes, dStats, dDev, dRing, dSum := run(donor)
	pRes, pStats, pDev, pRing, pSum := run(pristine)
	if !reflect.DeepEqual(dRes, pRes) || !reflect.DeepEqual(dStats, pStats) ||
		!reflect.DeepEqual(dDev, pDev) || !reflect.DeepEqual(dRing, pRing) || dSum != pSum {
		t.Fatal("donor behavior changed after serving as a replica source")
	}
}

// TestOpenReplicaRejectsConfigDrift verifies the only permitted config
// difference between donor and replica is the seed.
func TestOpenReplicaRejectsConfigDrift(t *testing.T) {
	in, tables := fixture(t)
	cfg := Config{Seed: 3, SMTech: blockdev.NandFlash, Ring: uring.Config{SGL: true}}
	donor, err := Open(in, tables, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = 4
	bad.CacheBytes = 1 << 24
	if _, err := OpenReplica(donor, bad, nil); err == nil {
		t.Fatal("OpenReplica accepted a config that differs beyond Seed")
	}
}
