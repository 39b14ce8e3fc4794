// Quickstart: build a scaled synthetic DLRM model, load its user
// embeddings into an SDM store backed by simulated Optane SSDs, and serve
// a handful of inference queries, printing the tiered-memory accounting.
package main

import (
	"fmt"
	"log"

	"sdm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A miniature M1: the paper's table shapes at ~1/100000 capacity.
	cfg := sdm.M1()
	cfg.NumUserTables = 8
	cfg.NumItemTables = 4
	cfg.ItemBatch = 16
	inst, err := sdm.Build(cfg, 1e-4, 42)
	if err != nil {
		return err
	}
	tables, err := inst.Materialize()
	if err != nil {
		return err
	}
	fmt.Printf("model %s: %d tables, %.1f MB scaled (%.0f GB at paper scale)\n",
		cfg.Name, len(inst.Tables), float64(inst.TotalBytes())/(1<<20),
		float64(cfg.TotalBytes)/(1<<30))

	// Open the SDM store: user tables go to Optane SSDs behind the FM row
	// cache; SGL sub-block reads enabled.
	store, err := sdm.Open(inst, tables, sdm.Config{
		SMTech:           sdm.OptaneSSD,
		Ring:             sdm.RingConfig{SGL: true},
		CacheBytes:       8 << 20,
		PooledCacheBytes: 1 << 20,
	})
	if err != nil {
		return err
	}
	fmt.Printf("model loaded to SM in %v (virtual), %d MB written\n",
		store.Stats().LoadDuration, store.Stats().LoadSMBytes>>20)

	gen, err := sdm.NewGenerator(inst, sdm.WorkloadConfig{Seed: 7, NumUsers: 200})
	if err != nil {
		return err
	}

	now := store.LoadDone()
	for i := 0; i < 50; i++ {
		q := gen.Next()
		outs := store.AllocOutputs(q)
		res, err := store.PoolQuery(now, q, outs)
		if err != nil {
			return err
		}
		if i%10 == 0 {
			fmt.Printf("query %2d: userIO=%8v cpu=%8v smReads=%d\n",
				i, (res.UserIODone - now).Duration(), res.CPUTime, res.SMReads)
		}
	}

	cs := store.CacheStats()
	ds := store.DeviceStats()
	fmt.Printf("\nFM row cache:   hit rate %.1f%% (%d items, %d KB resident)\n",
		cs.HitRate()*100, cs.Items, (cs.UsedBytes+cs.MetaBytes)>>10)
	fmt.Printf("pooled cache:   hit rate %.1f%%\n", store.PooledStats().HitRate()*100)
	fmt.Printf("SM devices:     %d reads, read amplification %.1fx, bus saved %.0f%% (SGL)\n",
		ds.Reads, ds.ReadAmplification(), ds.BusSavings()*100)
	return nil
}
