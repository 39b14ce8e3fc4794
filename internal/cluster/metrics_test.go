package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdm/internal/obs"
	"sdm/internal/sdmcheck"
)

func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	// The metrics-plane determinism contract: live instruments mark on
	// absolute virtual-time boundaries along the deterministic admission
	// sequence, window gauges replay from the same record derivation as
	// Result.Windows, and rendering folds per-emitter samples by
	// (time, host, labels) — so the exported bytes (both formats) are
	// identical at any HostWorkers count. Runs under -race in CI.
	in, tables := adaptiveFixture(t)
	var texts, jsons [][]byte
	var keys []string
	for _, workers := range []int{1, 4} {
		f, adapters := sloFleet(t, in, tables, 3, workers)
		if err := f.SetMetrics(MetricsConfig{}); err != nil {
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
		var om, jl bytes.Buffer
		if err := f.WriteMetrics(&om); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteMetricsJSONL(&jl); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, om.Bytes())
		jsons = append(jsons, jl.Bytes())
		keys = append(keys, resultKey(t, res)+AdapterStats(adapters).String())

		if workers == 1 {
			out := om.String()
			// The stack must exercise every layer of the catalog: routing,
			// admission classes, host serving, store cache, and the
			// adapter's migration planner.
			for _, family := range []string{
				"sdm_fleet_routes", "sdm_fleet_diversions",
				"sdm_fleet_class_offered", "sdm_fleet_window_p99_latency_seconds",
				"sdm_host_admitted_queries", "sdm_host_fm_served_ratio",
				"sdm_cache_hits", "sdm_device_media_bytes",
				"sdm_adapt_evals", "sdm_adapt_planned_moves",
			} {
				if !strings.Contains(out, "# TYPE "+family+" ") {
					t.Fatalf("family %s missing from export", family)
				}
			}
			if !strings.HasSuffix(out, "# EOF\n") {
				t.Fatal("OpenMetrics stream not terminated with # EOF")
			}
			// Window gauges: exactly one mark per configured window (the
			// window gauges are front-end series, rendered label-less).
			if got := strings.Count(out, "\nsdm_fleet_window_queries "); got != 8 {
				t.Fatalf("want 8 window marks, got %d", got)
			}
		}
	}
	if !bytes.Equal(texts[0], texts[1]) {
		t.Fatal("OpenMetrics bytes diverged across HostWorkers counts")
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Fatal("JSONL bytes diverged across HostWorkers counts")
	}
	if keys[0] != keys[1] {
		t.Fatal("metered results diverged across HostWorkers counts")
	}
	// Both exports hold to their schemas and carry the identical sample
	// stream, so they count the same samples.
	om, err := sdmcheck.OpenMetrics(texts[0])
	if err != nil {
		t.Fatalf("OpenMetrics export: %v", err)
	}
	jl, err := sdmcheck.MetricsJSONL(jsons[0])
	if err != nil {
		t.Fatalf("JSONL export: %v", err)
	}
	if om != jl {
		t.Fatalf("OpenMetrics export has %d samples, JSONL %d", om, jl)
	}
}

func TestMetricsOffMatchesUnmetered(t *testing.T) {
	// Metering must never perturb virtual time: instruments observe the
	// existing counters and sampling happens on paths that already run, so
	// a metered run's results are bit-identical to an unmetered run's.
	in, tables := adaptiveFixture(t)
	run := func(meter bool) string {
		f, adapters := sloFleet(t, in, tables, 3, 2)
		if meter {
			if err := f.SetMetrics(MetricsConfig{Every: 100 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := f.Run(300, 600)
		if err != nil {
			t.Fatal(err)
		}
		return resultKey(t, res) + AdapterStats(adapters).String()
	}
	unmetered := run(false)
	metered := run(true)
	if unmetered != metered {
		t.Fatalf("metering perturbed the run:\n%s\nvs\n%s", unmetered, metered)
	}
}

func TestWriteMetricsRequiresSetMetrics(t *testing.T) {
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewSticky(3, 64), Config{Seed: 5})
	if err := f.WriteMetrics(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteMetrics should fail with metrics off")
	}
	if err := f.WriteMetricsJSONL(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteMetricsJSONL should fail with metrics off")
	}
	if err := f.SetMetrics(MetricsConfig{Every: -time.Second}); err == nil {
		t.Fatal("negative sampling width should be rejected")
	}
}

func TestMetricsWindowAccounting(t *testing.T) {
	// The window gauges and Result.Windows come from one fold: every
	// window (including the widened final one) gets exactly one mark at
	// its End, and the window query counts sum to the run's completed
	// queries — no arrival lost at a boundary.
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewSticky(3, 64), Config{Seed: 5, Windows: 6})
	if err := f.SetMetrics(MetricsConfig{}); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(500, 300)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var marks, sum int
	var lastTime string
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "sdm_fleet_window_queries ") {
			continue
		}
		fields := strings.Fields(l)
		marks++
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("bad window sample %q: %v", l, err)
		}
		sum += v
		lastTime = fields[2]
	}
	if marks != len(res.Windows) || marks != 6 {
		t.Fatalf("got %d window marks, want %d", marks, len(res.Windows))
	}
	if got := int(res.Latency.Count()); sum != got {
		t.Fatalf("window query samples sum to %d, run completed %d", sum, got)
	}
	// The final mark sits at the widened last window's End.
	last := res.Windows[len(res.Windows)-1]
	ns := int64(last.End)
	if want := fmt.Sprintf("%d.%09d", ns/1e9, ns%1e9); lastTime != want {
		t.Fatalf("final window mark at %s, want %s", lastTime, want)
	}

	// Degenerate span: the fold lays no windows (end == start) and adds no
	// marks — the export is unchanged.
	if w := f.fold(nil, 5, 5, 0, false).windowStats(f.meter); w != nil {
		t.Fatalf("degenerate span should derive no windows, got %v", w)
	}
	var buf2 bytes.Buffer
	if err := f.WriteMetrics(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("degenerate derivation perturbed the export")
	}
}

func TestMetricsRerunRendersLatestRun(t *testing.T) {
	// Per-run front-end counters reset at Run start, so after a second Run
	// the exported route count matches that run's query count alone.
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewSticky(3, 64), Config{Seed: 5, Windows: 4})
	if err := f.SetMetrics(MetricsConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(500, 300); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(500, 200); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	// The final live mark carries the last run's total — for the
	// caller-owned route counter and for the per-class series, which read
	// the fleet's per-Run ledger.
	for _, series := range []string{"sdm_fleet_routes_total ", `sdm_fleet_class_offered_total{class="0"} `} {
		var last string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, series) {
				last = l
			}
		}
		if last == "" {
			t.Fatalf("no %ssamples rendered", series)
		}
		if fields := strings.Fields(last); fields[1] != "200" {
			t.Fatalf("final %s= %s, want 200 (second run only): %q", series, fields[1], last)
		}
	}
}

func TestMetricsDisabledPathAllocsNothing(t *testing.T) {
	// Metrics off is a nil *meter / nil *ticker: every hook returns
	// before touching its receiver, so the hot paths allocate nothing —
	// the guarantee behind the unmetered routing benchmark staying flat.
	var mt *meter
	var mm *ticker
	var ledger []classLedger
	if got := testing.AllocsPerRun(100, func() {
		mm.tick(1000)
		mt.feTick(1000)
		mt.coverClass(famOffered, 1, &ledger)
		mt.finalLive(2000)
		mt.markWindow(WindowStat{}, 0)
		mt.reset(nil)
	}); got != 0 {
		t.Fatalf("disabled metrics path allocates %.1f per run, want 0", got)
	}
}

func TestMetricsDiversionsMatchTrace(t *testing.T) {
	// A diversion is a move off a previous host that is still alive; a
	// move off a dead host is forced (ReroutedUsers). The metrics plane and
	// the trace count the same diversions on a failure drill.
	in, tables := fixture(t)
	f := testFleet(t, in, tables, 3, NewLeastOutstanding(), Config{Seed: 5})
	if err := f.SetMetrics(MetricsConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := f.SetTrace(obs.Config{Level: obs.LevelDecisions}); err != nil {
		t.Fatal(err)
	}
	if err := f.ScheduleFailure(1, 0.5); err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(500, 400)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := f.TraceSummary()
	if res.ReroutedUsers == 0 || sum.Diversions == 0 {
		t.Fatalf("drill has %d rerouted users and %d diversions; the test needs both", res.ReroutedUsers, sum.Diversions)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var last string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "sdm_fleet_diversions_total ") {
			last = l
		}
	}
	if fields := strings.Fields(last); len(fields) != 3 || fields[1] != strconv.Itoa(sum.Diversions) {
		t.Fatalf("final diversions sample %q, trace counts %d", last, sum.Diversions)
	}
}
