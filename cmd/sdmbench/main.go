// Command sdmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	sdmbench [-full] [-scale f] [-queries n] [-seed s] [-par n] [-json]
//	         [-cpuprofile file] [-memprofile file] <experiment>...
//	sdmbench -list
//	sdmbench all
//
// -json emits the same results as a JSON array of {id, title, header,
// rows, notes} objects (redirect to BENCH_<rev>.json to track a benchmark
// trajectory across PRs; cmd/benchdiff compares two such files).
//
// Every row is virtual time, so the output for a given scale and seed is
// byte-identical run to run and at any -par: experiments run concurrently
// and print in request order. The simulator's own wall clock is measured by
// the repository-root benchmarks and bench/, not here.
//
// Each experiment prints rows mirroring the corresponding artifact of
// "Supporting Massive DLRM Inference through Software Defined Memory"
// (tables 1-11, figures 1-6, and the appendix ablations). Absolute numbers
// come from the simulator at a reduced capacity scale; the shapes (who
// wins, by what factor) reproduce the paper.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"sdm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdmbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdmbench", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		full    = fs.Bool("full", false, "use the larger (slower) experiment scale")
		scale   = fs.Float64("scale", 0, "override model capacity scale (0 = preset)")
		queries = fs.Int("queries", 0, "override query count (0 = preset)")
		seed    = fs.Uint64("seed", 0, "override RNG seed (0 = preset)")
		par     = fs.Int("par", 0, "experiments to run concurrently (0 = all cores, 1 = sequential)")
		asJSON  = fs.Bool("json", false, "emit machine-readable results (JSON array) instead of tables")
		cpuProf = fs.String("cpuprofile", "", "write a wall-clock CPU profile of the experiment run to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *scale < 0 || *scale > 1:
		return fmt.Errorf("-scale must be in (0, 1] (0 = preset), got %g", *scale)
	case *queries < 0:
		return fmt.Errorf("-queries must be >= 0 (0 = preset), got %d", *queries)
	case *par < 0:
		return fmt.Errorf("-par must be >= 0 (0 = all cores), got %d", *par)
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-8s %s\n", id, experiments.Title(id))
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given (try -list or 'all')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	sc := experiments.Default()
	if *full {
		sc = experiments.Full()
	}
	if *scale > 0 {
		sc.ModelScale = *scale
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}

	// Experiments are independent simulations: run them across a worker
	// pool and print the results in request order. Each simulation is
	// deterministic, so the numbers are identical to a sequential run.
	results := make([]experiments.Result, len(ids))
	errs := make([]error, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = experiments.Run(ids[i], sc)
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, id := range ids {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", id, errs[i])
		}
	}
	if *asJSON {
		reports := make([]experiments.Report, 0, len(ids))
		for _, res := range results {
			reports = append(reports, experiments.ReportOf(res))
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	} else {
		for _, res := range results {
			res.Print(stdout)
			fmt.Fprintln(stdout)
		}
	}
	if *memProf != "" {
		mf, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live bytes
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		return mf.Close()
	}
	return nil
}
