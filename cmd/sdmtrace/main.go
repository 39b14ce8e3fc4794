// Command sdmtrace generates synthetic DLRM query traces and analyzes
// their locality — the standalone version of the paper's characterization
// study (§4.2, Figs. 4–5).
//
// Usage:
//
//	sdmtrace [-model M1|M2|M3] [-scale f] [-queries n] [-hosts h] [-seed s]
//
// It prints the temporal-locality CDFs for user and item tables (global
// and per-host under sticky routing) and the spatial-locality metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdmtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sdmtrace", flag.ContinueOnError)
	var (
		modelName = fs.String("model", "M1", "target model: M1, M2 or M3")
		scale     = fs.Float64("scale", 1e-5, "capacity scale vs the paper's model")
		queries   = fs.Int("queries", 2000, "queries to generate")
		hosts     = fs.Int("hosts", 8, "hosts for the per-host locality study")
		seed      = fs.Uint64("seed", 42, "RNG seed")
		userTabs  = fs.Int("usertables", 12, "user tables to synthesize (0 = paper count)")
		itemTabs  = fs.Int("itemtables", 6, "item tables to synthesize (0 = paper count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *scale <= 0 || *scale > 1:
		return fmt.Errorf("-scale must be in (0, 1], got %g", *scale)
	case *queries <= 0:
		return fmt.Errorf("-queries must be positive, got %d", *queries)
	case *hosts <= 0:
		return fmt.Errorf("-hosts must be positive, got %d", *hosts)
	case *userTabs < 0 || *itemTabs < 0:
		return fmt.Errorf("-usertables/-itemtables must be >= 0, got %d/%d", *userTabs, *itemTabs)
	}
	var cfg model.Config
	switch *modelName {
	case "M1":
		cfg = model.M1()
	case "M2":
		cfg = model.M2()
	case "M3":
		cfg = model.M3()
	default:
		return fmt.Errorf("-model must be M1, M2 or M3, got %q", *modelName)
	}
	if *userTabs > 0 {
		cfg.NumUserTables = *userTabs
	}
	if *itemTabs > 0 {
		cfg.NumItemTables = *itemTabs
	}
	cfg.ItemBatch = min(cfg.ItemBatch, 16)

	inst, err := model.Build(cfg, *scale, *seed)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: *seed, NumUsers: 5000})
	if err != nil {
		return err
	}
	qs := gen.GenerateTrace(*queries)
	if err := workload.Validate(inst, qs); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "model %s: %d tables (%d user), %.1f MB scaled, %d queries\n\n",
		cfg.Name, len(inst.Tables), cfg.NumUserTables,
		float64(inst.TotalBytes())/(1<<20), len(qs))

	results := workload.TemporalLocality(inst, qs, 100)
	user := workload.AverageCDF(results, embedding.User)
	item := workload.AverageCDF(results, embedding.Item)
	perHost := workload.AverageCDF(
		workload.PerHostTemporalLocality(inst, qs, *hosts), embedding.User)

	fmt.Fprintln(stdout, "temporal locality (fraction of accesses covered by top rows):")
	fmt.Fprintf(stdout, "%-12s %10s %10s %14s\n", "rows frac", "user", "item", "user/host")
	for i, f := range workload.CDFFractions {
		var u, it, ph float64
		if i < len(user) {
			u = user[i].Frac
		}
		if i < len(item) {
			it = item[i].Frac
		}
		if i < len(perHost) {
			ph = perHost[i].Frac
		}
		fmt.Fprintf(stdout, "%-12g %10.3f %10.3f %14.3f\n", f, u, it, ph)
	}

	fmt.Fprintln(stdout, "\nspatial locality (1.0 = accessed rows perfectly share 4KB blocks):")
	fmt.Fprintf(stdout, "%-8s %6s %10s\n", "table", "kind", "locality")
	for _, r := range workload.SpatialLocality(inst, qs, 4096) {
		fmt.Fprintf(stdout, "%-8d %6s %10.3f\n", r.Table, r.Kind, r.Locality)
	}
	return nil
}
