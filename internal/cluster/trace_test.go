package cluster

import (
	"bytes"
	"testing"

	"sdm/internal/obs"
	"sdm/internal/sdmcheck"
)

func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	// The trace-layer determinism contract: per-emitter collectors append
	// in virtual-time emission order and merge by (time, host) after the
	// run, so the rendered JSONL — every decision row plus the summary —
	// is byte-identical at any HostWorkers count. This is the same
	// invariant the slo experiment asserts; here it runs the full SLO
	// stack (weighted router, shed + queue admission, coordinator, drift)
	// under -race in CI.
	in, tables := adaptiveFixture(t)
	var traces [][]byte
	var keys []string
	for _, workers := range []int{1, 4} {
		f, adapters := sloFleet(t, in, tables, 3, workers)
		if err := f.SetTrace(obs.Config{Level: obs.LevelCounterfactual}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(300, 600); err != nil {
			t.Fatal(err)
		}
		if err := f.ScheduleDrift(0.5); err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(300, 900)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, buf.Bytes())
		keys = append(keys, resultKey(t, res)+AdapterStats(adapters).String())

		if workers == 1 {
			sum, ok := f.TraceSummary()
			if !ok {
				t.Fatal("TraceSummary unavailable with tracing on")
			}
			// The stack must actually exercise all three decision points:
			// every query routes, admission sheds or delays under the tight
			// buckets, and the adaptive hosts issue plan verdicts.
			if sum.Routes != 900 {
				t.Fatalf("trace has %d routes, want 900: %s", sum.Routes, sum)
			}
			if sum.Sheds+sum.Delays == 0 {
				t.Fatalf("admission never engaged in the trace: %s", sum)
			}
			if sum.Promotes+sum.Demotes+sum.Defers == 0 {
				t.Fatalf("no plan verdicts in the trace: %s", sum)
			}
			if sum.Events != len(f.TraceEvents()) {
				t.Fatalf("summary events=%d but %d merged events", sum.Events, len(f.TraceEvents()))
			}
			// The rendered file, admit events included, holds to the
			// trace schema and its summary agrees with its events.
			if _, err := sdmcheck.Trace(buf.Bytes()); err != nil {
				t.Fatalf("rendered trace: %v", err)
			}
		}
	}
	if !bytes.Equal(traces[0], traces[1]) {
		t.Fatal("rendered trace diverged across HostWorkers counts")
	}
	if keys[0] != keys[1] {
		t.Fatal("traced results diverged across HostWorkers counts")
	}
}

func TestTraceOffMatchesUntraced(t *testing.T) {
	// Tracing must never perturb virtual time: a traced run's results are
	// bit-identical to an untraced run's, and SetTrace(LevelOff) detaches
	// cleanly.
	in, tables := adaptiveFixture(t)
	run := func(level obs.Level) (string, *Fleet) {
		f, adapters := sloFleet(t, in, tables, 3, 2)
		if level != obs.LevelOff {
			if err := f.SetTrace(obs.Config{Level: level}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := f.Run(300, 600)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey(t, res) + AdapterStats(adapters).String(), f
	}
	untraced, _ := run(obs.LevelOff)
	traced, f := run(obs.LevelCounterfactual)
	if untraced != traced {
		t.Fatalf("tracing perturbed the run:\n%s\nvs\n%s", untraced, traced)
	}

	// Detach: LevelOff drops the trace state and WriteTrace refuses.
	if err := f.SetTrace(obs.Config{Level: obs.LevelOff}); err != nil {
		t.Fatal(err)
	}
	if ev := f.TraceEvents(); ev != nil {
		t.Fatalf("detached fleet still exposes %d events", len(ev))
	}
	if _, ok := f.TraceSummary(); ok {
		t.Fatal("detached fleet still exposes a summary")
	}
	if err := f.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace should fail with tracing off")
	}
}

func TestSetTraceValidation(t *testing.T) {
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewSticky(3, 64), Config{Seed: 5})

	// K defaults to min(2, hosts-1) and is bounded by hosts-1, not
	// clamped.
	if err := f.SetTrace(obs.Config{Level: obs.LevelDecisions, CounterfactualK: 3}); err == nil {
		t.Fatal("k above hosts-1 should be rejected")
	}
	if err := f.SetTrace(obs.Config{Level: obs.LevelDecisions, CounterfactualK: -1}); err == nil {
		t.Fatal("negative k should be rejected")
	}
	if err := f.SetTrace(obs.Config{Level: obs.Level(9)}); err == nil {
		t.Fatal("unknown level should be rejected")
	}
	if err := f.SetTrace(obs.Config{Level: obs.LevelCounterfactual, CounterfactualK: 2}); err != nil {
		t.Fatalf("k = hosts-1 should be accepted: %v", err)
	}
}

func TestTraceDisabledPathAllocsNothing(t *testing.T) {
	// The disabled path is a nil *obs.Collector whose methods return
	// before touching their receiver — zero allocations, the satellite
	// guarantee behind the untraced routing benchmark staying flat.
	var c *obs.Collector
	if got := testing.AllocsPerRun(100, func() {
		c.Route(0, obs.RouteDecision{Seq: 1, User: 2, Chosen: 0})
		c.Admit(0, obs.AdmitDecision{Outcome: "admit"})
		c.Plan(0, obs.PlanDecision{Action: "promote"})
	}); got != 0 {
		t.Fatalf("disabled trace path allocates %.1f per run, want 0", got)
	}
}
