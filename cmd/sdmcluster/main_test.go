package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm/internal/sdmcheck"
)

// TestFlagValidation: every rejecting branch of run's flag switches returns
// an error naming the flag, before any model is built or file created.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		flag string // must appear in the error
		args string
	}{
		{"-grain", "-grain rows"},
		{"-hosts", "-hosts 0"},
		{"-queries", "-queries 0"},
		{"-qps", "-qps 0"},
		{"-windows", "-windows 0"},
		{"-workers", "-workers -1"},
		{"-scale", "-scale 2"},
		{"-users", "-users 0"},
		{"-failfrac", "-fail 1 -failfrac 0"},
		{"-drift", "-drift 1.5"},
		{"-hottables", "-hottables -1"},
		{"-itemtables", "-itemtables -1"},
		{"-coord", "-coord"},
		{"-slot", "-adapt -coord -slot -1ms"},
		{"-sloclasses", "-sloclasses -1"},
		{"-counterfactual-k", "-counterfactual-k -1"},
		{"-counterfactual-k", "-hosts 2 -counterfactual-k 2"},
		{"-trace", "-policy all -trace " + filepath.Join(t.TempDir(), "never.jsonl")},
		{"-metrics", "-policy all -metrics " + filepath.Join(t.TempDir(), "never.txt")},
		{"-metrics-every", "-metrics-every -1s"},
		// Non-finite floats pass every x <= 0 check.
		{"-qps", "-qps NaN"},
		{"-qps", "-qps +Inf"},
		{"-scale", "-scale NaN"},
		{"-failfrac", "-fail 1 -failfrac NaN"},
		{"-drift", "-drift NaN"},
	} {
		err := run(strings.Fields(c.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("sdmcluster %s: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
	// The validators behind the remaining flags own their messages.
	for _, c := range []struct{ want, args string }{
		{"Hysteresis", "-hysteresis 0.5"},
		{"Hysteresis", "-hysteresis NaN"},
		{"Hysteresis", "-hysteresis +Inf"},
		{"PaybackSeconds", "-payback NaN"},
		{"Smoothing", "-smoothing NaN"},
		{"BandwidthBytesPerSec", "-migbw NaN"},
		{"WearDaysPerSecond", "-wear NaN"},
		{"level", "-trace-level loud"},
		{"unknown policy", "-policy fastest"},
		{"unknown scorer", "-policy weighted -scorers luck=1"},
		{"admission", "-admit gold"},
		{`class "a" listed twice`, "-sloclasses 2 -admit a=500,a=400"},
	} {
		err := run(strings.Fields(c.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("sdmcluster %s: error %v, want one mentioning %q", c.args, err, c.want)
		}
	}
}

// sameBytes fails unless the two files exist, are non-empty and identical.
func sameBytes(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 || !bytes.Equal(da, db) {
		t.Fatalf("%s (%d bytes) and %s (%d bytes) differ or are empty", a, len(da), b, len(db))
	}
}

// TestTraceAndMetricsDeterministicAcrossWorkers: the same traced run and the
// same metered run at -workers 1 and -workers 4 must render byte-identical
// files, and the streams must satisfy sdmcheck (trace: every line a
// known kind with its required payload, virtual-time ordered, one summary
// line whose counts agree; metrics: samples under declared families,
// per-series virtual-time ordering, monotone counters, in both formats).
func TestTraceAndMetricsDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	drill := "-hosts 3 -queries 300 -qps 600 -hottables 2 -drift 0.5 -adapt -grain range -coord -warm=false"
	sdmcluster := func(args string) {
		t.Helper()
		if err := run(strings.Fields(drill+" "+args), io.Discard); err != nil {
			t.Fatalf("sdmcluster %s: %v", args, err)
		}
	}
	traced := "-policy weighted -scorers affinity=1,queue=0.4,migavoid=1.2 -trace-level counterfactual"
	sdmcluster(traced + " -workers 1 -trace " + path("trace_w1.jsonl"))
	sdmcluster(traced + " -workers 4 -trace " + path("trace_w4.jsonl"))
	sameBytes(t, path("trace_w1.jsonl"), path("trace_w4.jsonl"))

	sdmcluster("-policy sticky -workers 1 -metrics " + path("metrics_w1.txt"))
	sdmcluster("-policy sticky -workers 4 -metrics " + path("metrics_w4.txt"))
	sameBytes(t, path("metrics_w1.txt"), path("metrics_w4.txt"))
	sdmcluster("-policy sticky -workers 4 -metrics " + path("metrics.jsonl"))
	for _, name := range []string{"trace_w1.jsonl", "metrics_w1.txt", "metrics.jsonl"} {
		if _, err := sdmcheck.File(path(name)); err != nil {
			t.Fatalf("sdmcheck %s: %v", name, err)
		}
	}
}
