package cluster

import "testing"

// TestSteadyStateFleetAllocs pins the fleet half of the allocation budget
// (the engine half is core's TestSteadyStateQueryAllocs). Once two warm runs
// have grown the records and routing ledgers, a Fleet.Run allocates a fixed
// handful of objects for result assembly whatever its length: the count is
// the same at n and 2n queries, so a query allocates nothing. A feedback
// router executes every query on the calling goroutine, so the count is
// exact rather than scheduler-dependent.
func TestSteadyStateFleetAllocs(t *testing.T) {
	const (
		qps     = 300
		perRun  = 34 // objects a warm Run allocates, independent of n
		queries = 300
	)
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 4, NewLeastOutstanding(), Config{Seed: 7, HostWorkers: 1})
	allocs := func(n int) float64 {
		run := func() {
			if _, err := f.Run(qps, n); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		return testing.AllocsPerRun(3, run)
	}
	small, large := allocs(queries), allocs(2*queries)
	t.Logf("a warm Run allocates %.0f objects at %d queries, %.0f at %d", small, queries, large, 2*queries)
	if small != large {
		t.Fatalf("a warm Run allocates %.0f objects at %d queries and %.0f at %d: some allocation scales with the query count",
			small, queries, large, 2*queries)
	}
	if large > perRun {
		t.Fatalf("a warm Run allocates %.0f objects, budget %d", large, perRun)
	}
}
