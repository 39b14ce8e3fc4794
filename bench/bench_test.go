package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sdm/internal/stats"
)

func TestQuantileAndSpread(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 10, 2, 8, 4, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.99); math.Abs(got-9.91) > 1e-9 {
		t.Errorf("p99 = %v, want 9.91", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := trimmedMean(xs, 0.2); got != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5 (the mean of 1..8)", got)
	}
	if got := trimmedMean(nil, 0.2); got != 0 {
		t.Errorf("trimmedMean of nothing = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Error("helpers must not reorder their input")
	}
}

func TestInterpQuantile(t *testing.T) {
	h := stats.NewHistogram()
	for i := 0; i < 900; i++ {
		h.Observe(1e-3)
	}
	for i := 0; i < 100; i++ {
		h.Observe(2e-3)
	}
	lo, hi := h.Quantile(0.5), h.Quantile(0.95)
	if got := cdfBelow(h, lo); math.Abs(got-0.9) > 1e-9 {
		t.Errorf("cdfBelow(low bucket) = %v, want 0.9", got)
	}
	if got := cdfBelow(h, hi); math.Abs(got-1) > 1e-9 {
		t.Errorf("cdfBelow(high bucket) = %v, want 1", got)
	}
	// Halfway through the upper bucket's share lands halfway between the
	// two bucket values; inside the lowest bucket it runs up from the minimum.
	if got, want := interpQuantile(h, 0.95), (lo+hi)/2; math.Abs(got-want) > 1e-9*want {
		t.Errorf("p95 = %v, want %v", got, want)
	}
	if got := interpQuantile(h, 0.45); got < h.Min() || got > lo {
		t.Errorf("p45 = %v, want within [%v, %v]", got, h.Min(), lo)
	}
	if got := interpQuantile(stats.NewHistogram(), 0.99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", Start: 0, End: 100, Parent: -1},
		{Name: "workload.next_shared", Start: 5, End: 35, Parent: 0},
		{Name: "serving.admit", Start: 40, End: 90, Parent: 0},
		// The shadow span runs after its parent ended and still counts.
		{Name: "core.pool_ops", Start: 110, End: 130, Parent: 2},
		// A child longer than its parent cannot push self time below zero.
		{Name: "query", Start: 200, End: 210, Parent: -1},
		{Name: "serving.admit", Start: 200, End: 230, Parent: 4},
	}
	want := []int64{20, 30, 30, 20, 0, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if d := durations(spans, "serving.admit"); len(d) != 2 || d[0] != 0.05 || d[1] != 0.03 {
		t.Errorf("durations = %v, want [0.05 0.03] µs", d)
	}
}

func TestMaxQPSAtSLO(t *testing.T) {
	r := func(qps, strain float64) rung { return rung{qps: qps, strain: strain} }
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"halfway in log rate", []rung{r(100, 0.5), r(400, 1.5)}, 200},
		{"top passes", []rung{r(100, 0.5), r(200, 0.9)}, 200},
		{"lowest fails", []rung{r(100, 2), r(200, 4)}, 50},
		{"first failure wins", []rung{r(100, 0.5), r(200, 1.5), r(400, 0.2)}, math.Sqrt(100 * 200)},
	} {
		if got := maxQPSAtSLO(c.rungs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end at smoke scale, untraced and
// traced, and holds the output against BENCHMARK.json: every workload and
// metric named there is emitted exactly once, nothing else is, and no
// operation or check fails — which includes the traced driver reproducing
// Fleet.Run query for query.
func TestSmoke(t *testing.T) {
	bs, err := loadBenchSpec(filepath.Join("..", benchFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bs.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bs.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bs.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bs.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bs.Workloads), len(specs))
	}
	seen := map[string]bool{}
	unique := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	setup := false
	for _, m := range bs.EndToEnd {
		unique("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bs.PerLayer {
		unique("per-layer metric", m.Name)
	}

	spansDir = t.TempDir()
	for i, w := range bs.Workloads {
		unique("workload", w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		for _, pass := range []struct {
			trace string
			want  []benchMetric
		}{{"0", bs.EndToEnd}, {"1", bs.PerLayer}} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0", "--trace", pass.trace, "-smoke"}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %s: %v", w.Name, pass.trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the JSON result: %v", w.Name, pass.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, pass.trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s trace %s: %d metrics emitted, BENCHMARK.json names %d", w.Name, pass.trace, len(res.Metrics), len(pass.want))
			}
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s is not emitted", w.Name, pass.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s %s: no finite value", w.Name, m.Name)
				case pass.trace == "0" && *got.Value == 0:
					t.Errorf("%s %s: an end-to-end metric must never be 0", w.Name, m.Name)
				}
				// Exactly once in the text lines too.
				prefix := w.Name + " " + m.Name + " "
				n := 0
				for _, l := range lines {
					if strings.HasPrefix(l, prefix) {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s: %d text lines for %s, want 1", w.Name, n, m.Name)
				}
			}
		}
	}
}
