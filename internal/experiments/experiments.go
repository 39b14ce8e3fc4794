// Package experiments regenerates every table and figure of the paper's
// evaluation (§5, Figs. 1–6, Tables 1–11, plus the Appendix ablations).
// Each experiment runs the full SDM stack at a configurable capacity scale
// (production sizes do not fit a test machine; all ratios are preserved)
// and returns a printable result whose rows mirror what the paper reports.
// cmd/sdmbench prints them; the repository-root benchmarks wrap them.
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

// Result is a printable experiment outcome.
type Result interface {
	// ID returns the experiment identifier (e.g. "fig3", "tab8").
	ID() string
	// Print renders the paper-style rows.
	Print(w io.Writer)
}

// Runner executes one experiment.
type Runner func(sc Scale) (Result, error)

// registry maps experiment ids to runners, in presentation order.
var registry = []struct {
	id     string
	title  string
	runner Runner
}{
	{"fig1", "Fig. 1: table size vs bytes/query", Fig1},
	{"tab1", "Table 1: SM technology catalog", Tab1},
	{"fig3", "Fig. 3: IOPS vs loaded latency (Nand vs Optane)", Fig3},
	{"tab2", "Table 2: usecases (Inference vs InferenceEval)", Tab2},
	{"fig4", "Fig. 4: temporal locality CDFs", Fig4},
	{"fig5", "Fig. 5: spatial locality", Fig5},
	{"fig6", "Fig. 6: cache organization & DRAM placement", Fig6},
	{"tab3", "Table 3: pooled-embedding subsequence profiling", Tab3},
	{"tab4", "Table 4: pooled cache LenThreshold sweep", Tab4},
	{"tab8", "Table 8: M1 on simpler hardware (power)", Tab8},
	{"tab9", "Table 9: M2 avoiding scale-out (power)", Tab9},
	{"tab10", "Table 10: M3 SDM sizing roofline", Tab10},
	{"tab11", "Table 11: M3 multi-tenancy fleet power", Tab11},
	{"cluster", "§4.2/Fig. 4c at serving time: fleet routing policies", Cluster},
	{"fleetscale", "scale-up campaign: metered fleet wall-clock/allocation baseline (warn-only)", FleetScale},
	{"alloc", "steady-state allocation budget: B/query + allocs/query on the engine and fleet hot paths (gated regression-only)", Alloc},
	{"drift", "adaptive tiering: hot-set rotation, re-placement, capped migration", Drift},
	{"rowrange", "hot-row-range migration: move rows, not tables, under one bandwidth cap", RowRange},
	{"coord", "fleet-coordinated, wear-aware migration windows: staggered vs lockstep under drift", Coord},
	{"slo", "SLO-aware serving: scorer-weighted routing, utilization knee, per-class admission", SLO},
	{"sgl", "§4.1.1: SGL sub-block read savings", SGL},
	{"mmap", "§4.1: mmap vs DIRECT_IO", Mmap},
	{"deprune", "§4.5: de-pruning at load time", Deprune},
	{"dequant", "§A.5: de-quantization at load time", Dequant},
	{"interop", "§A.2: inter-op parallelism", InterOp},
	{"polling", "§A.1: polling vs IRQ completions", Polling},
	{"warmup", "§A.4: warmup over-provisioning", Warmup},
	{"update", "§A.3/§3: model update & endurance", Update},
}

// exclusiveIDs marks experiments that measure process-global state
// (runtime.MemStats deltas, wall clock) and therefore must not run
// concurrently with any other experiment — a parallel harness runs them on
// their own.
var exclusiveIDs = map[string]bool{"alloc": true, "fleetscale": true}

// Exclusive reports whether the experiment must run with nothing else
// allocating in the process (see exclusiveIDs).
func Exclusive(id string) bool { return exclusiveIDs[id] }

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
func Run(id string, sc Scale) (Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.runner(sc)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// tableResult is a generic printable result.
type tableResult struct {
	id     string
	header string
	rows   []string
	notes  []string
}

func (r *tableResult) ID() string { return r.id }

// Header exposes the column header for machine-readable output.
func (r *tableResult) Header() string { return r.header }

// Rows exposes the rendered rows for machine-readable output.
func (r *tableResult) Rows() []string { return r.rows }

// Notes exposes the annotations for machine-readable output.
func (r *tableResult) Notes() []string { return r.notes }

// Report is the machine-readable form of a Result — what cmd/sdmbench
// -json emits, so benchmark trajectories (BENCH_*.json) can be tracked
// across PRs.
type Report struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header string   `json:"header,omitempty"`
	Rows   []string `json:"rows"`
	Notes  []string `json:"notes,omitempty"`
}

// ReportOf converts a Result into its Report form. Results that don't
// embed tableResult degrade to id + title.
func ReportOf(res Result) Report {
	rep := Report{ID: res.ID(), Title: Title(res.ID())}
	if t, ok := res.(interface {
		Header() string
		Rows() []string
		Notes() []string
	}); ok {
		rep.Header = t.Header()
		rep.Rows = t.Rows()
		rep.Notes = t.Notes()
	}
	return rep
}

func (r *tableResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.id, Title(r.id))
	if r.header != "" {
		fmt.Fprintln(w, r.header)
	}
	for _, row := range r.rows {
		fmt.Fprintln(w, row)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
