package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// AllocResult is the steady-state allocation budget of the simulator's two
// hot paths: the store-level query engine and the fleet loop. Unlike the
// wall-clock fleetscale trajectory these rows are (near-)deterministic —
// single measuring goroutine, fixed HostWorkers, warm caches,
// runtime.MemStats deltas — so benchdiff gates them regression-only: a
// >10% growth in B/query or allocs/query fails CI, improvements pass.
type AllocResult struct {
	tableResult
	// EngineBPerQuery and FleetBPerQuery are allocated heap bytes per
	// query in the respective steady-state loops.
	EngineBPerQuery float64
	FleetBPerQuery  float64
}

// allocDelta runs fn three times and returns the fewest heap bytes and
// object allocations one call performed, from MemStats deltas around each.
// A stray runtime allocation only ever adds to one call, while a real
// per-query cost shows in all three, so the minimum is the stable reading.
func allocDelta(fn func() error) (bytes, objs uint64, err error) {
	bytes, objs = math.MaxUint64, math.MaxUint64
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := fn(); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		objs = min(objs, m1.Mallocs-m0.Mallocs)
	}
	return bytes, objs, nil
}

// Alloc measures the per-query allocation budget the zero-alloc hot-path
// work protects. Both loops run long enough to amortize the remaining
// per-run costs (result aggregation, free-list growth) to well under the
// gate's tolerance.
func Alloc(sc Scale) (Result, error) {
	inst, tables, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	res := &AllocResult{}
	res.id = "alloc"
	res.header = fmt.Sprintf("%-8s %9s %12s %14s", "path", "queries", "B/query", "allocs/query")

	wcfg := workload.Config{Seed: sc.Seed, NumUsers: 2000, UserAlpha: 0.8}
	n := sc.Queries * 8
	if n < 2000 {
		n = 2000
	}

	// Engine path: arena-backed generation + recycled outputs + PoolQuery
	// on one store; the query runs on the measuring goroutine.
	{
		scfg := core.Config{
			Seed: sc.Seed, SMTech: blockdev.NandFlash,
			Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
		}
		s, err := core.Open(inst, tables, scfg, nil)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(inst, wcfg)
		if err != nil {
			return nil, err
		}
		var obuf core.OutputBuf
		loop := func(queries int) error {
			now := s.LoadDone()
			for i := 0; i < queries; i++ {
				issue := now + simclock.Time(time.Duration(i)*time.Millisecond)
				q := gen.NextShared()
				outs := s.OutputsFor(q, &obuf)
				if _, err := s.PoolQuery(issue, q, outs); err != nil {
					return err
				}
			}
			return nil
		}
		// Warm: grow caches, arena, scratch and result buffers to steady
		// state before measuring.
		if err := loop(n); err != nil {
			return nil, err
		}
		bytes, objs, err := allocDelta(func() error { return loop(n) })
		if err != nil {
			return nil, err
		}
		res.EngineBPerQuery = float64(bytes) / float64(n)
		res.rows = append(res.rows, fmt.Sprintf("%-8s %9d %12.1f %14.2f",
			"engine", n, res.EngineBPerQuery, float64(objs)/float64(n)))
	}

	// Fleet path: front-end + routed members executing inline straight from
	// the generator arena, recycled records.
	{
		scfg := core.Config{
			Seed: sc.Seed, SMTech: blockdev.NandFlash,
			Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20,
		}
		hcfg := serving.Config{Spec: serving.HWSS(), InterOp: true, Seed: sc.Seed}
		const nHosts = 4
		hosts, err := cluster.HostSet(inst, tables, nHosts, &scfg, hcfg)
		if err != nil {
			return nil, err
		}
		// Under a feedback router the fleet executes every routed query on
		// the front-end goroutine: no worker goroutines, no query copies.
		// That removes the wall-clock-dependent QueryBuf free-list growth a
		// fire-and-forget router exhibits and makes this row reproducible
		// enough to gate.
		fl, err := cluster.New(hosts, cluster.NewLeastOutstanding(), cluster.Config{Seed: sc.Seed, HostWorkers: 1})
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(inst, wcfg)
		if err != nil {
			return nil, err
		}
		fl.SetGenerator(gen)
		qps := 75.0 * nHosts
		// Two warm runs: the first grows the records/routed ledgers, the
		// second verifies they stay grown.
		if _, err := fl.Run(qps, n); err != nil {
			return nil, err
		}
		if _, err := fl.Run(qps, n); err != nil {
			return nil, err
		}
		bytes, objs, err := allocDelta(func() error {
			_, err := fl.Run(qps, n)
			return err
		})
		if err != nil {
			return nil, err
		}
		res.FleetBPerQuery = float64(bytes) / float64(n)
		res.rows = append(res.rows, fmt.Sprintf("%-8s %9d %12.1f %14.2f",
			"fleet", n, res.FleetBPerQuery, float64(objs)/float64(n)))
	}

	res.notes = append(res.notes,
		"steady-state MemStats deltas over warm loops at HostWorkers 1, the least of three measured loops; gated regression-only in benchdiff (>10% growth fails, improvements pass)",
		"engine = NextShared + OutputsFor + PoolQuery on one store; fleet = full Fleet.Run including routing, admission and per-run aggregation")
	return res, nil
}
