// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, Figs. 1–6, Tables 1–11, plus the Appendix ablations).
// Each experiment runs the full SDM stack at a configurable capacity scale
// (production sizes do not fit a test machine; all ratios are preserved)
// and returns a Report: the rows the paper reports, and the named values
// behind them. cmd/sdmbench prints them; the repository-root benchmarks
// report the values.
//
// Every row is virtual time: for a given Scale the output is byte-identical
// run to run and whatever else runs in the process. What the simulator
// itself costs in wall clock and allocation is measured elsewhere — by the
// repository-root benchmarks, the steady-state allocation tests and bench/.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Scale bounds experiment cost. Default() keeps every experiment in the
// seconds range for benchmarks; Full() runs larger traces for the CLI.
type Scale struct {
	// ModelScale multiplies paper model capacities (1 = full size).
	ModelScale float64
	// Queries per measured run.
	Queries int
	// Seed for all synthesis.
	Seed uint64
}

// Default returns the benchmark-friendly scale.
func Default() Scale {
	return Scale{ModelScale: 3e-6, Queries: 300, Seed: 42}
}

// Full returns the CLI scale (minutes, not hours).
func Full() Scale {
	return Scale{ModelScale: 3e-5, Queries: 2000, Seed: 42}
}

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	id     string
	title  string
	runner func(sc Scale) (*Report, error)
}{
	{"fig1", "Fig. 1: table size vs bytes/query", fig1},
	{"tab1", "Table 1: SM technology catalog", tab1},
	{"fig3", "Fig. 3: IOPS vs loaded latency (Nand vs Optane)", fig3},
	{"tab2", "Table 2: usecases (Inference vs InferenceEval)", tab2},
	{"fig4", "Fig. 4: temporal locality CDFs", fig4},
	{"fig5", "Fig. 5: spatial locality", fig5},
	{"fig6", "Fig. 6: cache organization & DRAM placement", fig6},
	{"tab3", "Table 3: pooled-embedding subsequence profiling", tab3},
	{"tab4", "Table 4: pooled cache LenThreshold sweep", tab4},
	{"tab8", "Table 8: M1 on simpler hardware (power)", tab8},
	{"tab9", "Table 9: M2 avoiding scale-out (power)", tab9},
	{"tab10", "Table 10: M3 SDM sizing roofline", tab10},
	{"tab11", "Table 11: M3 multi-tenancy fleet power", tab11},
	{"cluster", "§4.2/Fig. 4c at serving time: fleet routing policies", routing},
	{"drift", "adaptive tiering: hot-set rotation, re-placement, capped migration", drift},
	{"rowrange", "hot-row-range migration: move rows, not tables, under one bandwidth cap", rowRange},
	{"coord", "fleet-coordinated, wear-aware migration windows: staggered vs lockstep under drift", coord},
	{"slo", "SLO-aware serving: scorer-weighted routing, utilization knee, per-class admission", slo},
	{"sgl", "§4.1.1: SGL sub-block read savings", sgl},
	{"mmap", "§4.1: mmap vs DIRECT_IO", mmap},
	{"deprune", "§4.5: de-pruning at load time", deprune},
	{"dequant", "§A.5: de-quantization at load time", dequant},
	{"interop", "§A.2: inter-op parallelism", interOp},
	{"polling", "§A.1: polling vs IRQ completions", polling},
	{"warmup", "§A.4: warmup over-provisioning", warmup},
	{"update", "§A.3/§3: model update & endurance", update},
}

// IDs returns all experiment ids in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Title returns an experiment's description.
func Title(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// Run executes the experiment with the given id.
func Run(id string, sc Scale) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			r, err := e.runner(sc)
			if err != nil {
				return nil, err
			}
			r.ID, r.Title = e.id, e.title
			return r, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// Report is one experiment's result: the rows it prints and the named
// values behind them. It is also what cmd/sdmbench -json emits, so
// benchmark trajectories (BENCH_*.json) can be tracked across PRs.
type Report struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header string   `json:"header,omitempty"`
	Rows   []string `json:"rows"`
	Notes  []string `json:"notes,omitempty"`
	Values []Value  `json:"values,omitempty"`
}

// Value is one measured number of a report, in the unit the experiment
// computes it in. Name is lowercase [a-z0-9_] segments joined by '.',
// unique within its report; a point of a series ends in its 0-based index
// (sweep.rr_p99.2). Unit is one of frac (a share, 0–1), ns, s, ms, 1/s, B,
// count, ratio (x times) or bool (1 or 0).
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add appends a named value.
func (r *Report) add(name string, v float64, unit string) {
	r.Values = append(r.Values, Value{name, v, unit})
}

// Print renders the paper-style rows.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	if r.Header != "" {
		fmt.Fprintln(w, r.Header)
	}
	for _, row := range r.Rows {
		fmt.Fprintln(w, row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// flag is a bool value: 1 or 0.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
