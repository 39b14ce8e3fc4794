// Package model defines DLRM model configurations and builds synthetic
// model instances. The three target models M1/M2/M3 reproduce the exact
// shape parameters of the paper's Table 6 (table counts, embedding
// dimension ranges and averages in bytes, pooling factors, batch sizes and
// MLP shapes); capacities can be scaled down by a configurable factor so
// experiments fit in test machines while preserving every ratio the
// paper's results depend on.
package model

import (
	"fmt"
	"math"

	"sdm/internal/embedding"
	"sdm/internal/quant"
	"sdm/internal/xrand"
)

// Config is a DLRM model configuration in the shape of Table 6.
type Config struct {
	Name string
	// TotalBytes is the serving size of the model (embedding payload).
	TotalBytes int64
	// User/Item table populations.
	NumUserTables int
	NumItemTables int
	// Row byte ranges [min, max] and target average for user/item tables
	// ("Emb table dim (B)" of Table 6 — dimension in bytes, row-wise
	// quantized).
	UserDimBytes DimRange
	ItemDimBytes DimRange
	// Average pooling factors.
	UserPF float64
	ItemPF float64
	// Batch sizes (§2.2: B_U is 1 for latency-sensitive inference;
	// InferenceEval uses B_U == B_I, Table 2).
	UserBatch int
	ItemBatch int
	// MLP shape.
	NumMLPLayers int
	AvgMLPWidth  int
	// UserCapacityFrac is the fraction of TotalBytes held by user tables
	// (§2.2: "more than 2/3 of the model capacity are contributed by the
	// user embeddings").
	UserCapacityFrac float64
	// Access skew (Zipf alpha) ranges; the paper observes item tables
	// show more temporal locality than user tables (Fig. 4).
	UserAlpha AlphaRange
	ItemAlpha AlphaRange
	// ZeroFrac is the fraction of prunable (≈0) rows (§4.5).
	ZeroFrac float64
	// QType is the embedding storage encoding (int8 row-wise by default).
	QType quant.Type
}

// DimRange is a [Min, Max] byte range with a target average.
type DimRange struct {
	Min, Max, Avg int
}

// AlphaRange is a uniform range of Zipf skews.
type AlphaRange struct {
	Min, Max float64
}

// M1 returns the Table 6 configuration of model M1: 143 B parameters,
// 143 GB, 61 user + 30 item tables, user PF 42, item batch 50.
func M1() Config {
	return Config{
		Name:          "M1",
		TotalBytes:    143 << 30,
		NumUserTables: 61, NumItemTables: 30,
		UserDimBytes: DimRange{Min: 90, Max: 172, Avg: 124},
		ItemDimBytes: DimRange{Min: 90, Max: 172, Avg: 132},
		UserPF:       42, ItemPF: 9,
		UserBatch: 1, ItemBatch: 50,
		NumMLPLayers: 31, AvgMLPWidth: 300,
		UserCapacityFrac: 0.70,
		UserAlpha:        AlphaRange{Min: 0.7, Max: 1.05},
		ItemAlpha:        AlphaRange{Min: 0.95, Max: 1.3},
		ZeroFrac:         0.25,
		QType:            quant.Int8,
	}
}

// M2 returns the Table 6 configuration of model M2: 450 B parameters,
// 150 GB, 450 user + 280 item tables, accelerator-class compute.
func M2() Config {
	return Config{
		Name:          "M2",
		TotalBytes:    150 << 30,
		NumUserTables: 450, NumItemTables: 280,
		UserDimBytes: DimRange{Min: 32, Max: 288, Avg: 64},
		ItemDimBytes: DimRange{Min: 4, Max: 320, Avg: 38},
		UserPF:       25, ItemPF: 14,
		UserBatch: 1, ItemBatch: 150,
		NumMLPLayers: 43, AvgMLPWidth: 735,
		UserCapacityFrac: 0.67, // 100 GB of 150 GB is user side (§5.2)
		UserAlpha:        AlphaRange{Min: 0.7, Max: 1.05},
		ItemAlpha:        AlphaRange{Min: 0.95, Max: 1.3},
		ZeroFrac:         0.25,
		QType:            quant.Int8,
	}
}

// M3 returns the Table 6 configuration of the future model M3: 5 T
// parameters, 1 TB, 1800 user + 900 item tables, item batch 1000.
func M3() Config {
	return Config{
		Name:          "M3",
		TotalBytes:    1000 << 30,
		NumUserTables: 1800, NumItemTables: 900,
		UserDimBytes: DimRange{Min: 32, Max: 512, Avg: 192},
		ItemDimBytes: DimRange{Min: 32, Max: 512, Avg: 192},
		UserPF:       26, ItemPF: 26,
		UserBatch: 1, ItemBatch: 1000,
		NumMLPLayers: 35, AvgMLPWidth: 6000,
		UserCapacityFrac: 0.67,
		UserAlpha:        AlphaRange{Min: 0.7, Max: 1.05},
		ItemAlpha:        AlphaRange{Min: 0.95, Max: 1.3},
		ZeroFrac:         0.25,
		QType:            quant.Int8,
	}
}

// Fig1Model returns the model behind Fig. 1: 140 GB, 734 tables, of which
// 445 are user tables accounting for 100 GB.
func Fig1Model() Config {
	c := M2()
	c.Name = "Fig1"
	c.TotalBytes = 140 << 30
	c.NumUserTables = 445
	c.NumItemTables = 289
	c.UserCapacityFrac = 100.0 / 140.0
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TotalBytes <= 0:
		return fmt.Errorf("model %s: TotalBytes must be > 0", c.Name)
	case c.NumUserTables < 0 || c.NumItemTables < 0:
		return fmt.Errorf("model %s: negative table counts", c.Name)
	case c.NumUserTables+c.NumItemTables == 0:
		return fmt.Errorf("model %s: no tables", c.Name)
	case !(c.UserCapacityFrac >= 0 && c.UserCapacityFrac <= 1): // NaN fails too
		return fmt.Errorf("model %s: UserCapacityFrac must be in [0, 1], got %v", c.Name, c.UserCapacityFrac)
	case !(c.ZeroFrac >= 0 && c.ZeroFrac <= 1):
		return fmt.Errorf("model %s: ZeroFrac must be in [0, 1], got %v", c.Name, c.ZeroFrac)
	case c.ItemBatch <= 0:
		return fmt.Errorf("model %s: ItemBatch must be > 0", c.Name)
	}
	return nil
}

// Instance is a concrete synthetic model: table specs (optionally scaled in
// capacity) plus MLP widths.
type Instance struct {
	Config Config
	// Scale is the capacity scale factor applied (1 = paper size).
	Scale float64
	// Tables holds user tables first, then item tables.
	Tables []embedding.Spec
	// MLPWidths are the layer widths for the combined dense stack.
	MLPWidths []int
	// Seed used for synthesis.
	Seed uint64
}

// UserTables returns the user-table specs.
func (in *Instance) UserTables() []embedding.Spec {
	return in.Tables[:in.Config.NumUserTables]
}

// TotalBytes returns the summed (scaled) embedding payload.
func (in *Instance) TotalBytes() int64 {
	var t int64
	for _, s := range in.Tables {
		t += s.SizeBytes()
	}
	return t
}

// UserBytes returns the summed user-table payload.
func (in *Instance) UserBytes() int64 {
	var t int64
	for _, s := range in.UserTables() {
		t += s.SizeBytes()
	}
	return t
}

// Build synthesizes an instance of the configuration at the given capacity
// scale (e.g. 1e-4 shrinks a 143 GB model to ~14 MB while preserving table
// counts, dims, pooling factors and skews). Rows per table follow a
// log-uniform distribution so a few tables dominate capacity, matching the
// long tail of Fig. 1.
func Build(cfg Config, scale float64, seed uint64) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(scale > 0 && scale <= 1) { // NaN-safe
		return nil, fmt.Errorf("model %s: scale must be in (0,1], got %g", cfg.Name, scale)
	}
	rng := xrand.New(seed)
	in := &Instance{Config: cfg, Scale: scale, Seed: seed}

	userBudget := int64(float64(cfg.TotalBytes) * cfg.UserCapacityFrac * scale)
	itemBudget := int64(float64(cfg.TotalBytes)*scale) - userBudget

	userSpecs := buildGroup(rng, cfg, embedding.User, cfg.NumUserTables, userBudget, cfg.UserDimBytes, cfg.UserPF, cfg.UserAlpha, 0)
	itemSpecs := buildGroup(rng, cfg, embedding.Item, cfg.NumItemTables, itemBudget, cfg.ItemDimBytes, cfg.ItemPF, cfg.ItemAlpha, cfg.NumUserTables)
	in.Tables = append(userSpecs, itemSpecs...)

	// Dense stack widths: input = avg width, NumMLPLayers layers of
	// AvgMLPWidth, final output 1 (CTR logit).
	in.MLPWidths = append(in.MLPWidths, cfg.AvgMLPWidth)
	for i := 0; i < cfg.NumMLPLayers-1; i++ {
		in.MLPWidths = append(in.MLPWidths, cfg.AvgMLPWidth)
	}
	in.MLPWidths = append(in.MLPWidths, 1)
	return in, nil
}

func buildGroup(rng *xrand.RNG, cfg Config, kind embedding.Kind, n int, budget int64, dims DimRange, pf float64, alpha AlphaRange, idBase int) []embedding.Spec {
	if n == 0 {
		return nil
	}
	specs := make([]embedding.Spec, n)
	// Draw row-size weights log-uniformly over ~3 decades so a minority
	// of tables carries most capacity (Fig. 1's skew).
	weights := make([]float64, n)
	var wsum float64
	for i := range weights {
		weights[i] = math.Pow(10, 3*rng.Float64())
		wsum += weights[i]
	}
	for i := range specs {
		dimBytes := sampleDim(rng, dims)
		// Row payload dimBytes under int8 ⇒ dim elements = dimBytes - 8.
		dim := dimElements(cfg.QType, dimBytes)
		rb := quant.RowBytes(cfg.QType, dim)
		tableBytes := float64(budget) * weights[i] / wsum
		rows := int64(tableBytes / float64(rb))
		if rows < 4 {
			rows = 4
		}
		a := alpha.Min + rng.Float64()*(alpha.Max-alpha.Min)
		p := pf * (0.5 + rng.Float64()) // per-table PF spread around avg
		if p < 1 {
			p = 1
		}
		specs[i] = embedding.Spec{
			ID:            idBase + i,
			Name:          fmt.Sprintf("%s_%s_%d", cfg.Name, kind, i),
			Rows:          rows,
			Dim:           dim,
			QType:         cfg.QType,
			Kind:          kind,
			PoolingFactor: p,
			Alpha:         a,
			ZeroFrac:      cfg.ZeroFrac,
		}
	}
	return specs
}

// sampleDim draws a row byte size in [Min, Max], biased toward Avg by
// mixing a uniform draw with the average.
func sampleDim(rng *xrand.RNG, d DimRange) int {
	if d.Max <= d.Min {
		return d.Min
	}
	u := d.Min + rng.Intn(d.Max-d.Min+1)
	// Blend toward the average (beta-ish concentration).
	v := int(0.6*float64(d.Avg) + 0.4*float64(u))
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return v
}

// dimElements converts a target stored-row byte size into an element count
// for the given encoding (at least 1).
func dimElements(t quant.Type, rowBytes int) int {
	switch t {
	case quant.Int8:
		d := rowBytes - 8
		if d < 1 {
			d = 1
		}
		return d
	default:
		d := rowBytes / 4
		if d < 1 {
			d = 1
		}
		return d
	}
}

// Materialize builds the actual synthetic embedding tables of an instance.
// Memory use equals the scaled model size; keep scale small in tests.
func (in *Instance) Materialize() ([]*embedding.Table, error) {
	tables := make([]*embedding.Table, len(in.Tables))
	for i, spec := range in.Tables {
		t, err := embedding.NewSynthetic(spec, in.Seed)
		if err != nil {
			return nil, fmt.Errorf("materialize %s: %w", spec.Name, err)
		}
		tables[i] = t
	}
	return tables, nil
}

// BandwidthPerQuery returns the bytes per query each table contributes
// under Eq. 2: user tables are read once per query (B_U = 1), item tables
// B_I times. The slice is indexed like Tables.
func (in *Instance) BandwidthPerQuery() []float64 {
	out := make([]float64, len(in.Tables))
	for i, s := range in.Tables {
		batch := 1.0
		if s.Kind == embedding.Item {
			batch = float64(in.Config.ItemBatch)
		}
		out[i] = batch * s.PoolingFactor * float64(s.RowBytes())
	}
	return out
}
