package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSteadyStateFleetAllocs pins the fleet half of the allocation budget
// (the engine half is core's TestSteadyStateQueryAllocs). Once its
// high-water marks stop rising, a Fleet.Run allocates a fixed handful of
// objects for result assembly whatever its length, so a query allocates
// nothing; an inline Run's bytes are bounded too, so no result tally is
// rebuilt per Run.
//
// A fresh fleet's early Runs allocate a few objects more, whenever a
// high-water mark rises: lastHost grows as first-seen users arrive, a
// host's in-flight heap reaches a new depth, and a tally's bucket range
// widens to a new extreme latency. On the inline fixture a fresh fleet's
// fourth Run (300 queries) allocated 16 objects, and a Run ending near
// query 3 300 still 15, where the steady state is 14; so the fleets are
// warmed with 4 800 queries first.
//
// A feedback router executes every query on the calling goroutine, so its
// count is exact: each Run is measured alone, and one of n and one of 2n
// queries allocate the same. A sticky router runs the queued executor,
// which hands each query to its host's worker as a copy in a recycled
// buffer. How many buffers a member fills before the first comes
// back depends on the scheduler, but never more than pushBound+2 of them,
// each a QueryBuf and its three slices: a Run of 4n queries may allocate
// that much per member beyond a Run of n, and a copy per query would break
// the bound many times over.
func TestSteadyStateFleetAllocs(t *testing.T) {
	const (
		qps     = 300
		perRun  = 14 // objects a warm inline Run allocates, independent of n
		queries = 300
		perCopy = 4 // objects in a fresh QueryBuf: the struct and its three slices
		// perRunBytes bounds a warm inline Run's allocated bytes: it measures
		// 5 344 B at 600 queries (the Result, its Hosts and Windows, and the
		// Compact copies of the fleet-owned tallies), so this is ≈ 3× slack.
		// Fresh 8 KiB histograms per host, window and Run measured 110 256 B.
		perRunBytes = 16 << 10
	)
	in, tables := fixture(t)
	// allocs measures the mean over runs Runs of n queries each, after one
	// unmeasured Run.
	allocs := func(f *Fleet, runs, n int) float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, err := f.Run(qps, n); err != nil {
				t.Fatal(err)
			}
		})
	}
	warmed := func(f *Fleet) *Fleet {
		for range 8 {
			if _, err := f.Run(qps, 2*queries); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	t.Run("inline", func(t *testing.T) {
		f := warmed(testFleet(t, in, tables, 4, NewLeastOutstanding(), Config{Seed: 7, HostWorkers: 1}))
		small, large := allocs(f, 1, queries), allocs(f, 1, 2*queries)
		t.Logf("a warm Run allocates %.0f objects at %d queries, %.0f at %d", small, queries, large, 2*queries)
		if small != large {
			t.Fatalf("a warm Run allocates %.0f objects at %d queries and %.0f at %d: some allocation scales with the query count",
				small, queries, large, 2*queries)
		}
		if large > perRun {
			t.Fatalf("a warm Run allocates %.0f objects, budget %d", large, perRun)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := f.Run(qps, 2*queries); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("a warm Run allocates %d bytes at %d queries", bytes, 2*queries)
		if bytes > perRunBytes {
			t.Fatalf("a warm Run allocates %d bytes, budget %d", bytes, perRunBytes)
		}
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("queued,workers=%d", workers), func(t *testing.T) {
			const hosts = 4
			f := warmed(testFleet(t, in, tables, hosts, NewSticky(hosts, 64), Config{Seed: 7, HostWorkers: workers}))
			small, large := allocs(f, 3, queries), allocs(f, 3, 4*queries)
			t.Logf("a warm Run allocates %.0f objects at %d queries, %.0f at %d", small, queries, large, 4*queries)
			if slack := float64(hosts * (pushBound + 2) * perCopy); large > small+slack {
				t.Fatalf("a warm Run allocates %.0f objects at %d queries and %.0f at %d, more than the %.0f that recycled copies allow: some allocation scales with the query count",
					small, queries, large, 4*queries, slack)
			}
		})
	}
}
