// Package core implements the paper's primary contribution: the Software
// Defined Memory (SDM) embedding store (§4). A Store extends a DLRM
// model's embedding capacity beyond DRAM onto simulated Storage Class
// Memory devices, gluing together the fast-IO path (io_uring + SGL
// sub-block reads, §4.1), the unified FM row cache (§4.3), the pooled
// embedding cache (§4.4), the capacity trade-offs (de-pruning §4.5 and
// de-quantization §A.5 at load time) and the placement policies (§4.6)
// behind a single pooled-lookup API with virtual-time accounting.
package core

import (
	"fmt"
	"time"

	"sdm/internal/blockdev"
	"sdm/internal/placement"
	"sdm/internal/pooledcache"
	"sdm/internal/uring"
)

// CacheKind selects the FM row-cache organization (§4.3, Fig. 6).
type CacheKind int

// Cache organizations evaluated in Fig. 6.
const (
	// CacheDual routes dim ≤ split to the memory-optimized cache and the
	// rest to the CPU-optimized cache — the paper's production choice.
	CacheDual CacheKind = iota + 1
	// CacheMemOptimized uses only the compact set-associative cache.
	CacheMemOptimized
	// CacheCPUOptimized uses only the map+LRU cache.
	CacheCPUOptimized
)

// String returns the cache-kind name.
func (k CacheKind) String() string {
	switch k {
	case CacheDual:
		return "dual"
	case CacheMemOptimized:
		return "mem-optimized"
	case CacheCPUOptimized:
		return "cpu-optimized"
	default:
		return fmt.Sprintf("CacheKind(%d)", int(k))
	}
}

// Config assembles the tuning knobs of the paper's "Tuning API" paragraphs
// (§4.1–§4.6) that some program in the tree sets — an experiment, a CLI, an
// example or a bench/ workload — plus the ablation switches used by the
// experiment harness. What only one value was ever used for is a constant
// (the outstanding-IO cap is the device's recommendation, the prune
// threshold is pruneEps, devices auto-size to the SM-resident tables).
type Config struct {
	// SMTech is the slow-memory technology backing the store.
	SMTech blockdev.Technology
	// NumDevices is how many SM devices the host attaches (Table 7 hosts
	// carry 2; the M3 sizing study uses 9). Rows stripe across devices.
	NumDevices int

	// Ring carries the fast-IO knobs: SGL sub-block reads (§4.1.1) and
	// IRQ/polling completion (§A.1).
	Ring uring.Config

	// CacheBytes is the total FM budget for the row cache. Mapper
	// tensors of pruned SM tables are charged against this budget
	// (§4.5: "The space taken by mapper tensors [is] memory taken away
	// from the SM cache").
	CacheBytes int64
	// CacheKind selects the Fig. 6 organization.
	CacheKind CacheKind
	// CacheSplitBytes is the dual-cache routing threshold (0 → 255).
	CacheSplitBytes int

	// PooledCacheBytes enables the pooled embedding cache (§4.4) with
	// the given FM budget; 0 disables it.
	PooledCacheBytes int64
	// PooledLenThreshold is Table 4's LenThreshold knob.
	PooledLenThreshold int

	// Parallelism is ignored; kept because frozen bench/ sets it. A
	// query's operators run on the goroutine that calls PoolOps/PoolQuery.
	Parallelism int

	// Placement selects the §4.6 policy, DRAM budget and deny-list.
	Placement placement.Config

	// ReserveSM provisions every SM-eligible table for runtime placement
	// swaps (the adapt subsystem): each candidate gets an SM stripe
	// (written only if it starts SM-resident) and an FM cache shard, so a
	// table can later migrate FM↔SM without reallocating device space or
	// rebalancing cache budgets mid-run. Incompatible with the load-time
	// transforms (Prune/Deprune/DequantAtLoad) — they would make the FM
	// and SM row formats diverge.
	ReserveSM bool

	// MigrationRangeBytes is the row-range width, in stored bytes, at
	// which ReserveSM tables are provisioned for partial-table migration:
	// residency tracking, per-range lookup counters and range-scoped
	// migrations all operate on [lo, hi) row windows of this size, so an
	// adaptive controller can promote a table's hot rows without paying
	// for its cold ones. 0 selects 256 KiB.
	MigrationRangeBytes int64

	// Prune stores SM tables pruned, with mapper tensors in FM (§4.5).
	Prune bool
	// Deprune re-materializes pruned tables as dense at load time
	// (Algorithm 2), freeing the mapper FM for cache at the cost of a
	// larger SM footprint and extra cold accesses.
	Deprune bool
	// DequantAtLoad expands SM tables to FP32 at load time (§A.5).
	DequantAtLoad bool

	Seed uint64
}

// Defaulted returns the config with zero fields replaced by defaults.
func (c Config) Defaulted() Config {
	if c.SMTech == 0 {
		c.SMTech = blockdev.NandFlash
	}
	if c.NumDevices <= 0 {
		c.NumDevices = 2
	}
	if c.CacheKind == 0 {
		c.CacheKind = CacheDual
	}
	if c.CacheSplitBytes <= 0 {
		c.CacheSplitBytes = 255
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 8 << 20
	}
	if c.PooledLenThreshold <= 0 {
		c.PooledLenThreshold = 4
	}
	if c.MigrationRangeBytes <= 0 {
		c.MigrationRangeBytes = 256 << 10
	}
	if c.Placement.Policy == 0 {
		c.Placement.Policy = placement.SMOnlyWithCache
		c.Placement.UserTablesOnly = true
	}
	return c
}

// PooledConfig derives the pooled-cache configuration.
func (c Config) pooledConfig() pooledcache.Config {
	return pooledcache.Config{
		CapacityBytes: c.PooledCacheBytes,
		LenThreshold:  c.PooledLenThreshold,
	}
}

// pruneEps is the |value| threshold under which Prune drops a row.
const pruneEps = 1e-6

// CPU cost model for the functional layer, used to convert real work into
// virtual host CPU time for the serving simulator. The constants are
// commodity-server magnitudes; the paper's comparative results depend only
// on their ratios (e.g. cache hit ≪ SM IO, block read pays an extra copy).
const (
	costCacheGetBase = 60 * time.Nanosecond // one row-cache probe (×variant cost)
	costCachePut     = 80 * time.Nanosecond // one row-cache insert
	costMapperLookup = 15 * time.Nanosecond // pruned-index mapper probe
	costHashPerIndex = 8 * time.Nanosecond  // pooled-cache order-invariant hash
)

// Per-byte costs in nanoseconds (sub-nanosecond, so expressed as float).
const (
	costDequantPerByteNs = 0.25 // dequantize+accumulate, per row byte
	costMemcpyPerByteNs  = 0.03 // host memcpy, per byte
	costPooledCopyByteNs = 0.02 // pooled-vector copy on hit
	costFMReadPerByteNs  = 0.01 // direct-FM row read, per byte
)

func perByteCost(nsPerByte float64, n int) time.Duration {
	return time.Duration(nsPerByte * float64(n))
}

// FMPoolCPU is the CPU time of pooling n bytes of FM-resident rows: a
// direct memory read plus dequantize-and-accumulate, per byte. Flat DRAM
// hosts (serving) and the store's FM fast paths price a lookup with it.
func FMPoolCPU(n int) time.Duration {
	return perByteCost(costFMReadPerByteNs+costDequantPerByteNs, n)
}
