package workload

import (
	"slices"

	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/stats"
)

// TemporalResult is one table's temporal-locality CDF (Fig. 4): the
// cumulative fraction of accesses covered by the hottest fraction of rows.
type TemporalResult struct {
	Table int
	Kind  embedding.Kind
	// Points sample the CDF at fixed row-population fractions.
	Points []stats.CDFPoint
}

// CDFFractions are the row-population fractions at which Fig. 4-style CDFs
// are sampled.
var CDFFractions = []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0}

// TemporalLocality replays a trace and computes the per-table access-count
// CDF over accessed rows, reproducing Fig. 4(a,b). Only tables with at
// least minAccesses are reported.
func TemporalLocality(inst *model.Instance, qs []Query, minAccesses int) []TemporalResult {
	counts := make([]map[int64]uint64, len(inst.Tables))
	for i := range counts {
		counts[i] = make(map[int64]uint64)
	}
	for _, q := range qs {
		for _, op := range q.Ops {
			m := counts[op.Table]
			for _, pool := range op.Pools {
				for _, idx := range pool {
					m[idx]++
				}
			}
		}
	}
	var out []TemporalResult
	for t, m := range counts {
		var total uint64
		vals := make([]uint64, 0, len(m))
		for _, c := range m {
			vals = append(vals, c)
			total += c
		}
		// CDF re-sorts by count internally, but keep the collected order
		// deterministic at the source rather than leaning on the callee.
		slices.Sort(vals)
		if int(total) < minAccesses {
			continue
		}
		out = append(out, TemporalResult{
			Table:  t,
			Kind:   inst.Tables[t].Kind,
			Points: stats.CDF(vals, CDFFractions),
		})
	}
	return out
}

// AverageCDF averages the CDFs of results with the given kind (0 = all),
// producing the per-group summary series printed for Fig. 4.
func AverageCDF(results []TemporalResult, kind embedding.Kind) []stats.CDFPoint {
	var acc []float64
	var n int
	for _, r := range results {
		if kind != 0 && r.Kind != kind {
			continue
		}
		if acc == nil {
			acc = make([]float64, len(r.Points))
		}
		for i, p := range r.Points {
			acc[i] += p.Frac
		}
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]stats.CDFPoint, len(acc))
	for i := range acc {
		out[i] = stats.CDFPoint{X: CDFFractions[i], Frac: acc[i] / float64(n)}
	}
	return out
}

// SpatialResult is one table's spatial-locality measurement (Fig. 5).
type SpatialResult struct {
	Table int
	Kind  embedding.Kind
	// Locality is uniqueIdx/uniqueBlocks normalized by rows-per-block:
	// 1.0 = perfect packing of accessed rows into blocks, →0 = scattered.
	Locality                float64
	UniqueIdx, UniqueBlocks int
}

// SpatialLocality replays a trace and computes the Fig. 5 metric per table:
// "the average ratio of unique index to unique 4KB block size, normalized
// to the maximum unique index per block size per table".
func SpatialLocality(inst *model.Instance, qs []Query, blockSize int) []SpatialResult {
	if blockSize <= 0 {
		blockSize = 4096
	}
	idxSets := make([]map[int64]struct{}, len(inst.Tables))
	blkSets := make([]map[int64]struct{}, len(inst.Tables))
	for i := range idxSets {
		idxSets[i] = make(map[int64]struct{})
		blkSets[i] = make(map[int64]struct{})
	}
	for _, q := range qs {
		for _, op := range q.Ops {
			rb := int64(inst.Tables[op.Table].RowBytes())
			for _, pool := range op.Pools {
				for _, idx := range pool {
					idxSets[op.Table][idx] = struct{}{}
					blkSets[op.Table][idx*rb/int64(blockSize)] = struct{}{}
				}
			}
		}
	}
	out := make([]SpatialResult, 0, len(inst.Tables))
	for t := range idxSets {
		ui, ub := len(idxSets[t]), len(blkSets[t])
		if ui == 0 {
			continue
		}
		rowsPerBlock := float64(blockSize) / float64(inst.Tables[t].RowBytes())
		if rowsPerBlock < 1 {
			rowsPerBlock = 1
		}
		// uniqueIdx/uniqueBlocks ∈ [1, rowsPerBlock]; normalize to (0,1].
		loc := float64(ui) / float64(ub) / rowsPerBlock
		if loc > 1 {
			loc = 1
		}
		out = append(out, SpatialResult{
			Table: t, Kind: inst.Tables[t].Kind,
			Locality: loc, UniqueIdx: ui, UniqueBlocks: ub,
		})
	}
	return out
}

// UserPartition returns the sticky partition of user across parts — the
// hash shared by the offline Fig. 4c analysis (PerHostTemporalLocality)
// and the generator's SLO classes. The serving-time cluster router uses its
// own consistent-hash ring so hosts can join and leave; the two
// assignments have the same statistical properties but differ per user.
func UserPartition(user int64, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(user) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return int(h % uint64(parts))
}

// PerHostTemporalLocality routes a trace across hosts by sticky user
// affinity (UserPartition) and measures the temporal-locality CDF host 0
// observes (Fig. 4c). Pinning a user to a host concentrates each user's
// accesses and raises the per-host cache hit rate (§4.2: "Enforcing a
// user-to-host sticky policy can help increase cache hit rate observed
// from a host").
func PerHostTemporalLocality(inst *model.Instance, qs []Query, hosts int) []TemporalResult {
	var local []Query
	for _, q := range qs {
		if UserPartition(q.UserID, hosts) == 0 {
			local = append(local, q)
		}
	}
	return TemporalLocality(inst, local, 1)
}
