// Command bench is the repository's two-clock benchmark: it drives the
// simulator through public functions of internal/* only and reports, per
// workload, what the simulated hardware would deliver (virtual time) and
// what the simulator costs to produce it (wall clock). See README.md.
//
//	go run ./bench --workload fleet-sticky --seed 42 --seconds 12 --trace 0
//	go run ./bench -seed 42                    # all four workloads, interleaved
//	go run ./bench -seed 42 -trace 1           # ... plus the traced pass
//	go run ./bench -calibrate 5 -out sets.json # repeatability table
//	go run ./bench -compare a.json b.json      # apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run one workload and end with the one-line JSON result (empty = all four, interleaved)")
		seed      = fs.Uint64("seed", 42, "the only source of randomness: every input is generated from it")
		seconds   = fs.Int("seconds", 12, "wall-clock seconds each workload measures for")
		trace     = fs.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced pass (end-to-end metrics)")
		smoke     = fs.Bool("smoke", false, "shrink every workload to a few hundred queries (the package's own test)")
		out       = fs.String("out", "", "also write the metrics as JSON sets to this file (input of -compare)")
		calibrate = fs.Int("calibrate", 0, "run this many sets, each on its own seed, and print every metric's spread beside its bound")
		compare   = fs.Bool("compare", false, "compare two -out files (arguments: a.json b.json) under BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	switch {
	case *seconds < 0 || *trace < 0 || *trace > 1 || *calibrate < 0:
		return fmt.Errorf("bad arguments: -seconds %d -trace %d -calibrate %d", *seconds, *trace, *calibrate)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two files, got %d", fs.NArg())
		}
		return compareFiles(w, fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *calibrate > 0:
		return calibrateSets(w, opt, *workload, *calibrate, *out)
	case *workload != "":
		s, ok := findSpec(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		rep, err := runOne(s, opt)
		if err != nil {
			return err
		}
		printReport(w, rep)
		if err := writeSets(*out, opt.seed, []*report{rep}); err != nil {
			return err
		}
		return printResultLine(w, rep)
	}
	reps, err := runAll(opt)
	if err != nil {
		return err
	}
	failed := 0
	for _, rep := range reps {
		printReport(w, rep)
		failed += rep.failed
	}
	if err := writeSets(*out, opt.seed, reps); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// runOne is the contract's unit: one pass over one workload.
func runOne(s spec, opt options) (*report, error) {
	budget := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		return runTraced(s.scaled(opt.smoke), opt.seed, budget)
	}
	e := newE2E(s, opt.seed, opt.smoke)
	if err := e.setup(); err != nil {
		return nil, err
	}
	if err := e.measure(budget, e.spec.simBatches); err != nil {
		return nil, err
	}
	return e.complete()
}

// rounds is how many times the all-workloads run visits each workload. The
// workloads are interleaved (w1,w2,w3,w4,w1,…) with their fleets kept alive,
// so that slow drift of the machine lands on all of them alike.
const rounds = 3

// runAll measures every workload in one process, interleaved; with trace on
// the traced passes follow, one workload at a time.
func runAll(opt options) ([]*report, error) {
	var passes []*e2e
	for _, s := range specs {
		e := newE2E(s, opt.seed, opt.smoke)
		if err := e.setup(); err != nil {
			return nil, err
		}
		passes = append(passes, e)
	}
	budget := time.Duration(opt.seconds) * time.Second / rounds
	for r := 1; r <= rounds; r++ {
		for _, e := range passes {
			if err := e.measure(budget, (e.spec.simBatches*r+rounds-1)/rounds); err != nil {
				return nil, err
			}
		}
	}
	var reps []*report
	for _, e := range passes {
		rep, err := e.complete()
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		e.fx = nil
	}
	if opt.trace {
		for _, s := range specs {
			rep, err := runTraced(s.scaled(opt.smoke), opt.seed, time.Duration(opt.seconds)*time.Second)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
	}
	return reps, nil
}

// complete finishes an untraced pass: ladder, metrics, correctness checks.
func (e *e2e) complete() (*report, error) {
	rep := e.finish()
	s := e.spec
	if err := checkDeterminism(rep, e.fx, 2, s.batch/2); err != nil {
		return nil, err
	}
	if err := checkOracle(rep, e.fx, 24); err != nil {
		return nil, err
	}
	return rep, nil
}

// printReport writes one line per metric: workload metric value unit.
func printReport(w io.Writer, rep *report) {
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rep.workload, m.name, m.value, m.unit)
	}
	for _, m := range rep.notes {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rep.workload, m.name, m.value, m.unit)
	}
	if name := map[bool]string{false: "sim_digest", true: "replay_digest"}[rep.traced]; rep.digest != 0 {
		fmt.Fprintf(w, "%s %s %016x hash\n", rep.workload, name, rep.digest)
	}
	if rep.spans != "" {
		fmt.Fprintf(w, "%s spans_file %s path\n", rep.workload, rep.spans)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n", rep.workload, rep.attempted)
	fmt.Fprintf(w, "%s ops_failed %d count\n", rep.workload, rep.failed)
	fmt.Fprintf(w, "%s failed_pct %.6g %%\n", rep.workload, pct(float64(rep.failed), float64(rep.attempted)))
	for _, f := range rep.failures {
		fmt.Fprintf(w, "%s FAILED %s\n", rep.workload, f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResultLine ends a single-workload run with the contract's JSON
// object: correct, attempted, failed and the pass's metrics.
func printResultLine(w io.Writer, rep *report) error {
	ms := make(map[string]jsonMetric, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
