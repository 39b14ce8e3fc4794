package cluster

import (
	"fmt"
	"strings"
	"testing"

	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// TestWarmSettlesFixture: Warm stops at the first pair of consecutive
// windows whose rates settled. A twin fleet replays the doubling windows
// one Run at a time: no earlier pair settled, the last one did, and the
// Warmup carries the last window's rates and every window's queries.
func TestWarmSettlesFixture(t *testing.T) {
	in, tables := fixture(t)
	const qps = 300
	w, err := warmFixture(t, in, tables).Warm(qps)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm-up: %+v", w)
	twin := warmFixture(t, in, tables)
	var prev *Result
	n := 0
	for size := warmWindow; n < w.Queries; size *= 2 {
		res, err := twin.Run(qps, size)
		if err != nil {
			t.Fatal(err)
		}
		n += size
		if done := n == w.Queries; prev != nil && settled(prev, res) != done {
			t.Fatalf("after %d queries settled=%v, but Warm ran %d", n, !done, w.Queries)
		}
		prev = res
	}
	if n != w.Queries || n < 3*warmWindow || prev.HitRate != w.HitRate || prev.FMServedRate != w.FMServedRate {
		t.Fatalf("Warm returned %+v; its windows sum to %d queries, the last hit %v FM-served %v",
			w, n, prev.HitRate, prev.FMServedRate)
	}
}

// warmFixture is one host whose 1 MiB row cache takes several windows
// to fill.
func warmFixture(t *testing.T, in *model.Instance, tables []*embedding.Table) *Fleet {
	t.Helper()
	f, err := Build(in, tables, Spec{
		Hosts: 1, Store: &core.Config{Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 20},
		Host: serving.Config{Spec: serving.HWSS(), InterOp: true}, Router: NewRoundRobin(),
		Fleet: Config{Seed: 5}, Workload: workload.Config{Seed: 5, NumUsers: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWarmFlatHostSettlesAtOnce: a storeless flat-DRAM host has no rate
// that can move (both are 0), so it settles at the first comparison.
func TestWarmFlatHostSettlesAtOnce(t *testing.T) {
	in, tables := fixture(t)
	f, err := Build(in, tables, Spec{
		Hosts: 1, Host: serving.Config{Spec: serving.HWL(), InterOp: true}, Router: NewRoundRobin(),
		Fleet: Config{Seed: 3}, Workload: workload.Config{Seed: 3, NumUsers: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := f.Warm(50)
	if err != nil {
		t.Fatal(err)
	}
	if w != (Warmup{Queries: 3 * warmWindow}) {
		t.Fatalf("flat host warm-up %+v, want %d queries at zero rates", w, 3*warmWindow)
	}
}

// TestWarmCapErrors: a fleet that has not settled when the next window
// would pass the cap is an error, not a silent return. warmFixture settles
// after 7 windows' worth of queries (TestWarmSettlesFixture).
func TestWarmCapErrors(t *testing.T) {
	in, tables := fixture(t)
	for _, c := range []struct{ limit, ran int }{
		{warmWindow, warmWindow}, {3 * warmWindow, 3 * warmWindow}, {7*warmWindow - 1, 3 * warmWindow},
	} {
		_, err := warmFixture(t, in, tables).warm(300, c.limit)
		if want := fmt.Sprintf("after %d warm-up queries", c.ran); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cap %d: err %v, want one naming %q", c.limit, err, want)
		}
	}
	if _, err := warmFixture(t, in, tables).warm(300, 7*warmWindow); err != nil {
		t.Fatalf("cap %d: %v", 7*warmWindow, err)
	}
}

// TestWarmDeterministicAcrossWorkers: Warm, then a measured Run, gives the
// same warm-up and bit-identical Results at 1 and 4 host workers, on a
// queued sticky fleet and on an inline weighted one.
func TestWarmDeterministicAcrossWorkers(t *testing.T) {
	in, tables := fixture(t)
	const hosts = 4
	routers := map[string]func() Router{
		"sticky": func() Router { return NewSticky(hosts, 64) },
		"weighted": func() Router {
			sw, err := ParseScorers("queue=0.4,affinity=1", hosts)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewWeightedRouter("", sw...)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	}
	for _, name := range []string{"sticky", "weighted"} {
		var keys []string
		for _, workers := range []int{1, 4} {
			f := testFleet(t, in, tables, hosts, routers[name](), Config{Seed: 9, HostWorkers: workers})
			w, err := f.Warm(600)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(600, 500)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, fmt.Sprintf("%+v %s", w, resultKey(t, res)))
		}
		if keys[0] != keys[1] {
			t.Fatalf("%s: workers=1 %s\nworkers=4 %s", name, keys[0], keys[1])
		}
	}
}
