package experiments

import (
	"fmt"
	"sort"

	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/pooledcache"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// fig1 builds the 734-table/140 GB model of Fig. 1 and reports the
// size-vs-bandwidth scatter, confirming the paper's claim that the
// majority of capacity needs low bandwidth.
func fig1(sc Scale) (*Report, error) {
	inst, err := model.Build(model.Fig1Model(), clampScale(sc.ModelScale), sc.Seed)
	if err != nil {
		return nil, err
	}
	bw := inst.BandwidthPerQuery()
	type row struct {
		sizeMB, bytesPerQ float64
		kind              embedding.Kind
	}
	rows := make([]row, len(inst.Tables))
	var total int64
	for i, s := range inst.Tables {
		rows[i] = row{
			sizeMB:    float64(s.SizeBytes()) / float64(inst.Scale) / (1 << 20),
			bytesPerQ: bw[i],
			kind:      s.Kind,
		}
		total += s.SizeBytes()
	}
	// Capacity fraction in the low-BW half of tables.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bw[order[a]] < bw[order[b]] })
	var lowCap int64
	for _, i := range order[:len(order)/2] {
		lowCap += inst.Tables[i].SizeBytes()
	}
	userFrac := float64(inst.UserBytes()) / float64(total)
	lowBWFrac := float64(lowCap) / float64(total)
	r := &Report{Rows: []string{
		fmt.Sprintf("tables: %d (%d user / %d item), scaled size %.1f MB (paper: 140 GB)",
			len(inst.Tables), inst.Config.NumUserTables, inst.Config.NumItemTables,
			float64(total)/(1<<20)),
		fmt.Sprintf("user capacity fraction: %.2f (paper: 100GB/140GB = 0.71)", userFrac),
		fmt.Sprintf("capacity held by the lower-BW half of tables: %.0f%% (paper: majority)", lowBWFrac*100),
	}}
	r.add("tables", float64(len(inst.Tables)), "count")
	r.add("user_tables", float64(inst.Config.NumUserTables), "count")
	r.add("item_tables", float64(inst.Config.NumItemTables), "count")
	r.add("total_bytes", float64(total), "B")
	r.add("user_bytes", float64(inst.UserBytes()), "B")
	r.add("user_frac", userFrac, "frac")
	r.add("low_bw_capacity", lowBWFrac, "frac")
	// Print a compact scatter sample (10 tables across the size range).
	r.Rows = append(r.Rows, fmt.Sprintf("%-8s %12s %14s %6s", "table", "size(MB@full)", "bytes/query", "kind"))
	step := len(order) / 10
	if step == 0 {
		step = 1
	}
	for k := 0; k < len(order); k += step {
		i := order[k]
		r.Rows = append(r.Rows, fmt.Sprintf("%-8d %12.1f %14.0f %6s",
			i, rows[i].sizeMB, rows[i].bytesPerQ, rows[i].kind))
	}
	return r, nil
}

// tab2 prints the two usecases of Table 2 with their batch semantics.
func tab2(sc Scale) (*Report, error) {
	inst, _, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	inf, err := workload.NewGenerator(inst, workload.Config{Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	ev, err := workload.NewGenerator(inst, workload.Config{Seed: sc.Seed, EvalMode: true})
	if err != nil {
		return nil, err
	}
	qi, qe := inf.Next(), ev.Next()
	return &Report{Rows: []string{
		"Inference:      user batch = 1, item batch > 1 (O(100)); latency sensitive",
		"InferenceEval:  user batch == item batch > 1; accuracy validation",
		fmt.Sprintf("generated inference query:     user pools=%d item pools=%d", len(qi.Ops[0].Pools), len(qi.Ops[len(qi.Ops)-1].Pools)),
		fmt.Sprintf("generated inferenceEval query: user pools=%d item pools=%d", len(qe.Ops[0].Pools), len(qe.Ops[len(qe.Ops)-1].Pools)),
	}}, nil
}

// fig4 reproduces the temporal-locality study: per-table access CDFs for
// user (a) and item (b) embeddings, plus the per-host uplift from sticky
// routing (c).
func fig4(sc Scale) (*Report, error) {
	inst, _, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: sc.Seed, NumUsers: 5000, UserAlpha: 0.8})
	if err != nil {
		return nil, err
	}
	qs := gen.GenerateTrace(sc.Queries * 4)
	results := workload.TemporalLocality(inst, qs, 100)
	user := workload.AverageCDF(results, embedding.User)
	item := workload.AverageCDF(results, embedding.Item)
	perHost := workload.AverageCDF(
		workload.PerHostTemporalLocality(inst, qs, 8), embedding.User)

	r := &Report{Header: fmt.Sprintf("%-12s %10s %10s %14s", "rows frac", "user CDF", "item CDF", "user/host CDF")}
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
		r.add(fmt.Sprintf("user_cdf.%d", i), u, "frac")
		r.add(fmt.Sprintf("item_cdf.%d", i), it, "frac")
		r.Rows = append(r.Rows, fmt.Sprintf("%-12g %10.3f %10.3f %14.3f", f, u, it, ph))
	}
	r.Notes = append(r.Notes,
		"paper: power-law CDFs; item locality > user locality; per-host (sticky) > global")
	return r, nil
}

// fig5 reproduces the spatial-locality heatmap summary: unique-index to
// unique-4KB-block ratios, normalized per table.
func fig5(sc Scale) (*Report, error) {
	// Spatial locality needs bigger tables so the accessed set stays
	// sparse; use a dedicated instance.
	cfg := model.M1()
	cfg.NumUserTables = 6
	cfg.NumItemTables = 3
	cfg.ItemBatch = 8
	inst, err := model.Build(cfg, clampScale(sc.ModelScale*500), sc.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(inst, workload.Config{Seed: sc.Seed})
	if err != nil {
		return nil, err
	}
	qs := gen.GenerateTrace(sc.Queries)
	results := workload.SpatialLocality(inst, qs, 4096)
	r := &Report{Header: fmt.Sprintf("%-8s %6s %10s %12s %12s", "table", "kind", "locality", "uniqueIdx", "uniqueBlk")}
	var su, si, avgUser, avgItem float64
	var nu, ni int
	for _, t := range results {
		r.Rows = append(r.Rows, fmt.Sprintf("%-8d %6s %10.3f %12d %12d",
			t.Table, t.Kind, t.Locality, t.UniqueIdx, t.UniqueBlocks))
		if t.Kind == embedding.User {
			su += t.Locality
			nu++
		} else {
			si += t.Locality
			ni++
		}
	}
	if nu > 0 {
		avgUser = su / float64(nu)
	}
	if ni > 0 {
		avgItem = si / float64(ni)
	}
	r.add("avg_user", avgUser, "ratio")
	r.add("avg_item", avgItem, "ratio")
	r.Rows = append(r.Rows, fmt.Sprintf("average: user %.3f, item %.3f", avgUser, avgItem))
	r.Notes = append(r.Notes, "paper: cool heat map overall — low spatial locality (value 1.0 = perfect)")
	return r, nil
}

// tab3 reproduces the pooled-embedding subsequence profiling (Table 3).
func tab3(sc Scale) (*Report, error) {
	inst, _, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	// Large user population with churn: full-sequence repeats become
	// rare (the paper's c=P ≈ 5%), while partial overlap stays common.
	gen, err := workload.NewGenerator(inst, workload.Config{
		Seed: sc.Seed, NumUsers: 12000, UserAlpha: 0.75, SeqChurn: 0.7,
	})
	if err != nil {
		return nil, err
	}
	// Extract one user table's per-query sequences as the profiled stream.
	var queries [][]int64
	for i := 0; i < sc.Queries*8; i++ {
		q := gen.Next()
		queries = append(queries, q.Ops[0].Pools[0])
	}
	r := &Report{Header: fmt.Sprintf("%-20s %10s %22s", "Scheme", "Hit rate", "Generated sequences")}
	for _, scheme := range []struct {
		scheme pooledcache.ProfileScheme
		order  string
	}{
		{pooledcache.SchemeC10, "O(C(avgP,10))"},
		{pooledcache.SchemeC10Top, "O(100)"},
		{pooledcache.SchemeCP, "1"},
	} {
		pr := pooledcache.Profile(queries, scheme.scheme, 150, sc.Seed)
		r.Rows = append(r.Rows, fmt.Sprintf("%-20s %9.1f%% %22s (measured %.1f/qry)",
			pr.Scheme, pr.HitRate*100, scheme.order, pr.GeneratedPerQry))
	}
	r.Notes = append(r.Notes, "paper: c=10 → 26%, c=10 top → 19%, c=P → 5%")
	return r, nil
}

// tab4 sweeps the pooled cache LenThreshold (Table 4) on the live store.
func tab4(sc Scale) (*Report, error) {
	inst, tables, err := experimentModel(sc)
	if err != nil {
		return nil, err
	}
	r := &Report{Header: fmt.Sprintf("%-14s %10s %12s", "LenThreshold", "Hit Rate", "Hit Avg Len")}
	for _, lt := range []int{1, 4, 8, 16, 32} {
		run, err := runStoreTrace(sc, core.Config{
			Seed:               sc.Seed,
			Ring:               uring.Config{SGL: true},
			PooledCacheBytes:   4 << 20, // stands in for the paper's 4 GB at scale
			PooledLenThreshold: lt,
		}, inst, tables, workload.Config{
			Seed: sc.Seed, NumUsers: 4000, UserAlpha: 0.8, SeqChurn: 0.55,
		})
		if err != nil {
			return nil, err
		}
		ps := run.pooled
		r.Rows = append(r.Rows, fmt.Sprintf("%-14d %9.2f%% %12.1f", lt, ps.HitRate()*100, ps.AvgHitLen()))
	}
	r.Notes = append(r.Notes, "paper: hit rate ≈4-4.6%, avg hit len rising 11→76 with threshold")
	return r, nil
}
