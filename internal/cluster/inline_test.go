package cluster

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// settledGoroutines returns the goroutine count once it has stopped moving:
// a goroutine that has signalled completion (HostSet's builders) may still
// be exiting when its waiter resumes. A straggler that outlasts the spin
// only raises the baseline, which weakens the checks below and cannot fail
// them.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 5000; stable++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
		}
	}
	return n
}

// leakedGoroutines waits for a finished Run's workers to exit and returns
// how many goroutines remain above the baseline (0 = none left behind).
func leakedGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; n > baseline && i < 1_000_000; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return max(n-baseline, 0)
}

// goroutineProbe is a serving.Tuner that samples the process's goroutine
// count from inside a Run, on whichever goroutine executes its host.
type goroutineProbe struct{ calls, max int }

func (p *goroutineProbe) BeforeAdmit(simclock.Time) {
	p.calls++
	if n := runtime.NumGoroutine(); n > p.max {
		p.max = n
	}
}

// probeRun runs the fleet with one probe per host (each touched only by the
// goroutine executing that host) and returns the highest count any saw.
func probeRun(t *testing.T, f *Fleet) int {
	t.Helper()
	probes := make([]*goroutineProbe, len(f.members))
	for i, m := range f.members {
		probes[i] = &goroutineProbe{}
		m.host.SetTuner(probes[i])
	}
	if _, err := f.Run(400, 300); err != nil {
		t.Fatal(err)
	}
	calls, max := 0, 0
	for _, p := range probes {
		calls += p.calls
		if p.max > max {
			max = p.max
		}
	}
	if calls != 300 {
		t.Fatalf("probes saw %d admissions, want 300", calls)
	}
	return max
}

func TestBarrierRunsStartNoGoroutines(t *testing.T) {
	// A run that needs the pre-decision barrier (a Feedback() router, or
	// tracing on) executes on the caller: a probe inside Host.Admit sees
	// exactly the goroutines that existed before Run. The queued row is the
	// control that shows the probe can see workers at all.
	in, tables := fixture(t)
	for _, tc := range []struct {
		name   string
		router Router
		trace  bool
		inline bool
	}{
		{"feedback", NewLeastOutstanding(), false, true},
		{"traced-sticky", NewSticky(4, 64), true, true},
		{"queued-sticky", NewSticky(4, 64), false, false},
	} {
		f := testFleet(t, in, tables, 4, tc.router, Config{Seed: 11, HostWorkers: 4})
		if tc.trace {
			if err := f.SetTrace(obs.Config{Level: obs.LevelDecisions}); err != nil {
				t.Fatal(err)
			}
		}
		before := settledGoroutines()
		during := probeRun(t, f)
		if tc.inline && during > before {
			t.Errorf("%s: %d goroutines during Run, %d before it", tc.name, during, before)
		}
		if !tc.inline && during <= before {
			t.Errorf("%s: probe saw no worker goroutines (%d during, %d before)", tc.name, during, before)
		}
		if n := leakedGoroutines(before); n > 0 {
			t.Errorf("%s: Run left %d goroutines behind", tc.name, n)
		}
	}
}

func TestInlineMatchesQueued(t *testing.T) {
	// One seeded sticky fleet, run queued (untraced, four workers) and
	// inline (traced): results, per-host counters and the rendered metrics
	// must agree to the byte. Queue-mode admission makes delayed admissions
	// land behind later pushes, so the lastPush clamp fires on both paths,
	// and both drills are armed so the failure-index sync is crossed too.
	in, tables := fixture(t)
	type outcome struct {
		key     string
		snaps   []serving.CacheSnapshot
		metrics []byte
	}
	run := func(traced bool) outcome {
		f := testFleet(t, in, tables, 4, NewSticky(4, 64), Config{Seed: 29, HostWorkers: 4})
		gen, err := workload.NewGenerator(in, workload.Config{
			Seed: 29, NumUsers: 800, UserAlpha: 0.8, SLOClasses: 2,
			Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		f.SetGenerator(gen)
		if err := f.SetAdmission(AdmitConfig{Classes: []ClassAdmit{
			{Name: "gold", RatePerSec: 900, Burst: 20},
			{Name: "bulk", RatePerSec: 700, Burst: 4, Queue: true},
		}}); err != nil {
			t.Fatal(err)
		}
		if err := f.SetMetrics(MetricsConfig{}); err != nil {
			t.Fatal(err)
		}
		if traced {
			if err := f.SetTrace(obs.Config{Level: obs.LevelCounterfactual}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Run(2000, 600); err != nil { // warm
			t.Fatal(err)
		}
		if err := f.ScheduleFailure(2, 0.4); err != nil {
			t.Fatal(err)
		}
		if err := f.ScheduleDrift(0.6); err != nil {
			t.Fatal(err)
		}
		const n = 1200
		res, err := f.Run(2000, n)
		if err != nil {
			t.Fatal(err)
		}
		if res.FailedHost != 2 || !res.DriftFired || res.ReroutedUsers == 0 {
			t.Fatalf("drills did not fire: %+v", res)
		}
		// Poisson arrivals never coincide, so two queries admitted to one
		// host at the same instant mean the clamp moved the later one.
		clamped := 0
		last := make([]simclock.Time, len(f.members))
		for _, r := range f.records[:n] {
			if !r.ok {
				continue
			}
			if r.arrive == last[r.host] {
				clamped++
			}
			last[r.host] = r.arrive
		}
		if clamped == 0 {
			t.Fatal("the lastPush clamp never fired; the fixture no longer covers it")
		}
		o := outcome{key: resultKey(t, res)}
		for _, m := range f.members {
			o.snaps = append(o.snaps, m.host.Snapshot())
		}
		var buf bytes.Buffer
		if err := f.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		o.metrics = buf.Bytes()
		return o
	}
	queued, inline := run(false), run(true)
	if queued.key != inline.key {
		t.Fatalf("inline run diverged from queued:\n%s\nvs\n%s", queued.key, inline.key)
	}
	for i := range queued.snaps {
		if queued.snaps[i] != inline.snaps[i] {
			t.Fatalf("host %d counters diverged:\n%+v\nvs\n%+v", i, queued.snaps[i], inline.snaps[i])
		}
	}
	if !bytes.Equal(queued.metrics, inline.metrics) {
		t.Fatal("rendered metrics diverged between the queued and the inline run")
	}
}

func TestFeedbackDrillsDeterministicAcrossWorkers(t *testing.T) {
	// Failure and drift drills under feedback routers: the kill and the
	// rotation land between two inline jobs, and the outcome does not
	// depend on HostWorkers (which an inline run never reads).
	in, tables := fixture(t)
	for _, mk := range []func() Router{
		func() Router { return NewLeastOutstanding() },
		func() Router {
			sws, err := ParseScorers("affinity=1,queue=0.4,loadbal=0.1,fmserved=0.3", 4)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewWeightedRouter("weighted4", sws...)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	} {
		var keys []string
		for _, workers := range []int{1, 4} {
			f := testFleet(t, in, tables, 4, mk(), Config{Seed: 19, HostWorkers: workers})
			gen, err := workload.NewGenerator(in, workload.Config{
				Seed: 19, NumUsers: 800, UserAlpha: 0.8,
				Drift: workload.DriftConfig{HotTables: 2, HotBoost: 4, ColdShrink: 0.25},
			})
			if err != nil {
				t.Fatal(err)
			}
			f.SetGenerator(gen)
			if err := f.ScheduleFailure(1, 0.3); err != nil {
				t.Fatal(err)
			}
			if err := f.ScheduleDrift(0.7); err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(400, 900)
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedHost != 1 || res.Hosts[1].Alive || !res.DriftFired || res.DriftAt <= res.FailTime {
				t.Fatalf("%s: drills not recorded: %+v", res.Policy, res)
			}
			if got := int(res.Latency.Count()); got != res.Queries {
				t.Fatalf("%s: completed %d of %d queries", res.Policy, got, res.Queries)
			}
			keys = append(keys, resultKey(t, res))
		}
		if keys[0] != keys[1] {
			t.Fatalf("feedback drills diverged across worker counts:\n%s\nvs\n%s", keys[0], keys[1])
		}
	}
}

func TestHostErrorClearsBetweenRuns(t *testing.T) {
	// A generator over a model with more rows than the hosts' tables makes
	// Host.Admit fail mid-run. Both executions report it wrapped with the
	// host id and leave no goroutine behind, and the error does not outlive
	// its Run: with a good generator the same fleet runs again.
	in, tables := fixture(t)
	bigCfg := in.Config
	bigCfg.TotalBytes *= 8
	big, err := model.Build(bigCfg, 1, in.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		router Router
	}{
		{"queued", NewSticky(3, 64)},
		{"inline", NewLeastOutstanding()},
	} {
		scfg := core.Config{Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15}
		hosts, err := HostSet(in, tables, 3, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(hosts, tc.router, Config{Seed: 5, HostWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		before := settledGoroutines()
		bad, err := workload.NewGenerator(big, workload.Config{Seed: 5, NumUsers: 800, UserAlpha: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		f.SetGenerator(bad)
		_, err = f.Run(400, 300)
		if err == nil {
			t.Fatalf("%s: out-of-range rows should fail the run", tc.name)
		}
		if !strings.HasPrefix(err.Error(), "cluster: host ") || errors.Unwrap(err) == nil {
			t.Fatalf("%s: host error not wrapped with its host: %v", tc.name, err)
		}
		good, err := workload.NewGenerator(in, workload.Config{Seed: 5, NumUsers: 800, UserAlpha: 0.8})
		if err != nil {
			t.Fatal(err)
		}
		f.SetGenerator(good)
		res, err := f.Run(400, 300)
		if err != nil {
			t.Fatalf("%s: the failed run's error outlived it: %v", tc.name, err)
		}
		if got := int(res.Latency.Count()); got != 300 {
			t.Fatalf("%s: recovered run completed %d of 300 queries", tc.name, got)
		}
		if n := leakedGoroutines(before); n > 0 {
			t.Fatalf("%s: the runs left %d goroutines behind", tc.name, n)
		}
	}
}
