// Package serving simulates DLRM inference hosts (§2.3, §5): embedding
// operators execute against an SDM store (or a flat-DRAM baseline), dense
// compute runs on a CPU/accelerator service model, and the user-side SM
// work overlaps the item-side work per Eq. 3 so slow-memory latency stays
// off the critical path as long as it is shorter than the item path. A
// host executes the queries Admit hands it; arrivals come from
// cluster.Fleet, which measures a single host as a fleet of one (p95
// latency and the max QPS the power package turns into Tables 8, 9 and 11).
package serving

import (
	"errors"
	"fmt"
	"time"

	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/metrics"
	"sdm/internal/mlp"
	"sdm/internal/model"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// HostSpec describes a serving host SKU (Table 7).
type HostSpec struct {
	Name string
	// Cores is the CPU parallelism for embedding/IO work.
	Cores int
	// CPUFlops is the effective dense-compute rate of the CPU (FLOP/s).
	CPUFlops float64
	// AccelFlops is the accelerator dense-compute rate (0 = none). When
	// present, item embeddings and MLPs run on the accelerator (§5.2).
	AccelFlops float64
	// DRAMBytes is host memory (FM).
	DRAMBytes int64
	// RelPower is the normalized per-host power (Tables 8/9/11).
	RelPower float64
}

// Table 7 host SKUs. Power values are normalized per the paper's tables
// (HW-L = 1.0 in Table 8's scenario; accelerator hosts = 1.0 in Table 9's).
func HWL() HostSpec {
	return HostSpec{Name: "HW-L", Cores: 2 * 26, CPUFlops: 2 * 1.5e12, DRAMBytes: 256 << 30, RelPower: 1.0}
}

// HWS is the single-socket CPU host used as scale-out remote (Table 7).
func HWS() HostSpec {
	return HostSpec{Name: "HW-S", Cores: 26, CPUFlops: 1.5e12, DRAMBytes: 64 << 30, RelPower: 0.35}
}

// HWSS is the single-socket host with Nand SSDs (Table 7).
func HWSS() HostSpec {
	return HostSpec{Name: "HW-SS", Cores: 26, CPUFlops: 1.5e12, DRAMBytes: 64 << 30, RelPower: 0.4}
}

// HWAN is the accelerator host with Nand SSDs (Table 7).
func HWAN() HostSpec {
	return HostSpec{Name: "HW-AN", Cores: 26, CPUFlops: 1.5e12, AccelFlops: 100e12, DRAMBytes: 64 << 30, RelPower: 1.0}
}

// HWAO is the accelerator host with Optane SSDs (Table 7).
func HWAO() HostSpec {
	return HostSpec{Name: "HW-AO", Cores: 26, CPUFlops: 1.5e12, AccelFlops: 100e12, DRAMBytes: 64 << 30, RelPower: 1.0}
}

// HWF is the future accelerator platform of §5.3 (M3/Table 11).
func HWF() HostSpec {
	return HostSpec{Name: "HW-F", Cores: 52, CPUFlops: 3e12, AccelFlops: 800e12, DRAMBytes: 128 << 30, RelPower: 1.0}
}

// Config tunes a Host.
type Config struct {
	Spec HostSpec
	// InterOp enables inter-operator parallelism (§A.2): all embedding
	// ops of a query issue concurrently. Disabled, ops execute serially
	// and SM latencies accumulate (the −20% latency ablation).
	InterOp bool
	// RemoteUserPath models the scale-out baseline (§5.2 / Lui et al.):
	// user embeddings are fetched from remote HW-S shards over the
	// network instead of local SDM.
	RemoteUserPath bool
	// Seed is ignored: a host draws nothing at random. It is kept only
	// because frozen bench/ sets it.
	Seed uint64
}

// remoteRTT is the network round-trip of one remote user lookup.
const remoteRTT = 300 * time.Microsecond

// Host simulates one serving host. Exactly one of store (SDM path) or
// flat (all-DRAM path) backs the user-side embeddings; item-side tables
// always run from FM/accelerator memory, mirroring the paper's setups.
type Host struct {
	cfg   Config
	inst  *model.Instance
	store *core.Store
	flat  []*embedding.Table

	cores     []simclock.Time // per-core next-free virtual time
	accelFree simclock.Time

	// cpuBooked accumulates all CPU service time booked on the cores
	// (store IO-path CPU, flat-table pooling, remote-lookup handling), so
	// utilization is meaningful on every host flavor, including the
	// DRAM-only baseline that never touches a store.
	cpuBooked time.Duration

	// inflight holds the completion times of admitted-but-unfinished
	// queries as a min-heap; cluster routers read it through OutstandingAt.
	inflight simclock.TimeHeap

	// admitted counts queries accepted through Admit since host creation
	// (the metrics plane reads it at mark time).
	admitted uint64

	// topFLOPs is the FLOP count of one top-MLP forward pass.
	topFLOPs int64

	// tuner, when set, observes every admission (telemetry sampling,
	// runtime placement swaps, paced migration IO).
	tuner Tuner

	// horizon is the furthest completion booked on any resource; new runs
	// start after it so back-to-back measurements do not queue behind
	// stale bookings.
	horizon simclock.Time

	// reusable output buffers, indexed by table id and grown lazily to
	// the largest pool count seen per table
	outBufs [][][]float32
	// reusable per-run view over outBufs handed to the store
	runOuts [][][]float32
}

// NewHost builds a host. store may be nil when flat tables are provided
// (DRAM-only baseline); flat may be nil when a store is provided. The
// generator and clock parameters are ignored, kept only because frozen
// bench/ passes them: a host executes only what Admit hands it (a one-host
// cluster.Fleet is its arrival loop), and see simclock.Clock.
func NewHost(inst *model.Instance, store *core.Store, flat []*embedding.Table, _ *workload.Generator, _ *simclock.Clock, cfg Config) (*Host, error) {
	if store == nil && flat == nil && !cfg.RemoteUserPath {
		return nil, errors.New("serving: host needs a store, flat tables, or a remote user path")
	}
	if cfg.Spec.Cores <= 0 {
		return nil, fmt.Errorf("serving: host %q has no cores", cfg.Spec.Name)
	}
	topFLOPs, err := mlp.FLOPs(inst.MLPWidths)
	if err != nil {
		return nil, fmt.Errorf("serving: top MLP: %w", err)
	}
	return &Host{
		cfg:      cfg,
		inst:     inst,
		store:    store,
		flat:     flat,
		cores:    make([]simclock.Time, cfg.Spec.Cores),
		topFLOPs: topFLOPs,
		outBufs:  make([][][]float32, len(inst.Tables)),
	}, nil
}

// Tuner is a control loop attached to a host's admission stream: it runs
// background work on the host's virtual timeline, interleaved with
// queries in admission order (which is what keeps adaptive runs
// deterministic at any worker count). The adapt subsystem's Adapter is
// the canonical implementation; under fleet coordination its background
// IO additionally honors coordinator-granted migration windows
// (adapt.WindowFn), which must be pure functions of virtual time so the
// determinism contract survives window grants.
type Tuner interface {
	// BeforeAdmit runs before a query executes, at its arrival time.
	// Placement swaps committed here are visible to that query.
	BeforeAdmit(now simclock.Time)
}

// SetTuner installs (or, with nil, removes) the host's admission tuner.
func (h *Host) SetTuner(t Tuner) { h.tuner = t }

// Store exposes the host's SDM store (nil for flat/remote baselines) so
// control planes like the adapt subsystem can attach to it.
func (h *Host) Store() *core.Store { return h.store }

// coreAdmit books cpu seconds of work on the earliest-free core starting
// no earlier than t and returns (start, done).
func (h *Host) coreAdmit(t simclock.Time, cpu time.Duration) (simclock.Time, simclock.Time) {
	best := 0
	for i, free := range h.cores {
		if free < h.cores[best] {
			best = i
		}
	}
	start := t
	if h.cores[best] > start {
		start = h.cores[best]
	}
	done := start + simclock.Time(cpu)
	h.cores[best] = done
	h.cpuBooked += cpu
	return start, done
}

// denseTime converts the top-MLP FLOPs (scaled by item batch) into compute
// service time on the accelerator if present, else the CPU.
func (h *Host) denseTime(batch int) time.Duration {
	flops := h.topFLOPs * int64(batch)
	rate := h.cfg.Spec.CPUFlops
	if h.cfg.Spec.AccelFlops > 0 {
		rate = h.cfg.Spec.AccelFlops
	}
	return time.Duration(mlp.CostModel(flops, rate) * float64(time.Second))
}

// outsFor returns reusable output buffers for op.
func (h *Host) outsFor(op workload.TableOp) [][]float32 {
	bufs := h.outBufs[op.Table]
	if len(bufs) < len(op.Pools) {
		dim := h.inst.Tables[op.Table].Dim
		for len(bufs) < len(op.Pools) {
			bufs = append(bufs, make([]float32, dim))
		}
		h.outBufs[op.Table] = bufs
	}
	return bufs[:len(op.Pools)]
}

// execQuery runs one query arriving at t0 and returns its completion time.
// It is the only execution path: ops are walked in order, and every run of
// consecutive store-backed user ops issues as one store.PoolOps batch — the
// whole run at t0 with InterOp (the store replays its SM timing in operator
// order), one op at a time without.
func (h *Host) execQuery(t0 simclock.Time, q workload.Query) (simclock.Time, error) {
	nUser := h.inst.Config.NumUserTables
	var (
		userDone = t0
		itemDone = t0
		cpu      time.Duration
		// issue stays at t0 under inter-operator parallelism; serial
		// execution advances it to the previous op's IO completion so SM
		// latencies accumulate (§A.2 ablation).
		issue = t0
	)
	for i := 0; i < len(q.Ops); {
		op := q.Ops[i]
		opDone := issue
		j := i + 1
		switch {
		case op.Table < nUser && h.cfg.RemoteUserPath:
			// Scale-out: remote shard lookup (network RTT + remote CPU,
			// which is provisioned on the remote fleet, not here).
			opDone = issue + simclock.Time(remoteRTT)
			cpu += time.Duration(len(op.Pools)) * 2 * time.Microsecond
		case op.Table < nUser && h.store != nil:
			for h.cfg.InterOp && j < len(q.Ops) && q.Ops[j].Table < nUser {
				j++
			}
			h.runOuts = h.runOuts[:0]
			for _, o := range q.Ops[i:j] {
				h.runOuts = append(h.runOuts, h.outsFor(o))
			}
			rs, err := h.store.PoolOps(issue, q.Ops[i:j], h.runOuts)
			if err != nil {
				return t0, err
			}
			for _, r := range rs {
				cpu += r.CPUTime
				opDone = maxTime(opDone, r.IODone)
			}
		default:
			// FM/accelerator-resident path (item tables, or the DRAM-only
			// baseline's user tables): completes at issue.
			opCPU, err := h.poolFlat(op)
			if err != nil {
				return t0, err
			}
			cpu += opCPU
		}
		if op.Table < nUser {
			userDone = maxTime(userDone, opDone)
		} else {
			itemDone = maxTime(itemDone, opDone)
		}
		if !h.cfg.InterOp {
			issue = opDone
		}
		i = j
	}
	// Embedding CPU work books onto a core (queueing under load).
	_, cpuDone := h.coreAdmit(t0, cpu)
	// Eq. 3: the top MLP needs both sides; the user-side SM time hides
	// behind the item side as long as it is shorter.
	ready := maxTime(maxTime(userDone, itemDone), cpuDone)
	// Dense interaction compute (accelerator if present).
	done := maxTime(ready, h.accelFree) + simclock.Time(h.denseTime(h.inst.Config.ItemBatch))
	h.accelFree = done
	return done, nil
}

// poolFlat pools an op from flat FM tables and returns its CPU cost.
func (h *Host) poolFlat(op workload.TableOp) (time.Duration, error) {
	spec := h.inst.Tables[op.Table]
	var cpu time.Duration
	if h.flat != nil && op.Table < len(h.flat) {
		outs := h.outsFor(op)
		for b, pool := range op.Pools {
			if err := h.flat[op.Table].Pool(outs[b], pool); err != nil {
				return cpu, err
			}
		}
	}
	rows := op.TotalLookups()
	cpu += time.Duration(float64(rows*spec.RowBytes()) * 0.26) // dequant+pool ns/B
	return cpu, nil
}

// Ready returns the earliest virtual time at which the host can accept
// external admissions: after the store finished loading and after any
// previously admitted or measured work.
func (h *Host) Ready() simclock.Time {
	if h.store != nil {
		return maxTime(h.horizon, h.store.LoadDone())
	}
	return h.horizon
}

// Admit executes one query arriving at t and returns its completion time.
// It is the single entry point to execution: cluster front-ends call it
// with externally routed queries (the caller owns arrival generation and
// routing, the host owns execution, cache state and virtual-time
// accounting). Admissions must arrive in non-decreasing time order.
func (h *Host) Admit(t simclock.Time, q workload.Query) (simclock.Time, error) {
	if h.tuner != nil {
		h.tuner.BeforeAdmit(t)
	}
	done, err := h.execQuery(t, q)
	if err != nil {
		return 0, err
	}
	if done > h.horizon {
		h.horizon = done
	}
	h.admitted++
	for h.inflight.Len() > 0 && h.inflight.Min() <= t { // retire finished queries
		h.inflight.PopMin()
	}
	h.inflight.Push(done)
	return done, nil
}

// RegisterMetrics registers the host's serving instruments on r — the
// admitted-query counter, the virtual-time outstanding-ops gauge, the
// FM-served share, and booked CPU seconds — then the store's catalog.
// All are func-backed and read at mark time on the host's own execution
// path, so they are deterministic at any worker count. A nil registry
// registers nothing.
func (h *Host) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.NewCounterFunc(metrics.Desc{Name: "sdm_host_admitted_queries", Help: "Queries accepted through Admit since host creation."},
		func() uint64 { return h.admitted })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_host_outstanding_ops", Help: "Admitted queries still executing at the mark's virtual time."},
		func(now simclock.Time) float64 { return float64(h.OutstandingAt(now)) })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_host_fm_served_ratio", Help: "Share of lookups served without touching SM (1 - SMReads/Lookups)."},
		func(simclock.Time) float64 { return h.FMServedRate() })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_host_cpu_booked_seconds", Help: "Virtual CPU seconds booked on the host cores.", Unit: "seconds"},
		func(simclock.Time) float64 { return h.cpuBooked.Seconds() })
	if h.store != nil {
		h.store.RegisterMetrics(r)
	}
}

// OutstandingAt returns the number of admitted queries still executing at
// virtual time t — the load signal least-outstanding routers balance on.
// Queries completing exactly at t count as finished. A read changes nothing,
// so reads may come in any time order; only Admit retires completions. Not
// safe to call concurrently with Admit.
func (h *Host) OutstandingAt(t simclock.Time) int {
	n := 0
	for _, done := range h.inflight {
		if done > t {
			n++
		}
	}
	return n
}

// CacheSnapshot is a point-in-time view of a host's cache and IO counters.
// Cluster front-ends subtract two snapshots to attribute hits, misses and
// SM reads to an individual query or window.
type CacheSnapshot struct {
	CacheHits    uint64
	CacheMisses  uint64
	PooledHits   uint64
	PooledMisses uint64
	SMReads      uint64
	// Lookups counts store row lookups and FMDirectReads the subset served
	// by FM-direct tables, so deltas can attribute lookups to tiers even
	// as adaptive placement moves tables between them. RangeFMReads is the
	// sub-subset served by FM-resident row ranges (partial-table
	// promotions) rather than whole FM tables.
	Lookups       uint64
	FMDirectReads uint64
	RangeFMReads  uint64
	// SMWriteBytes is the lifetime SM media bytes written (model load
	// plus migration demotes) — the endurance counter fleet window
	// deltas attribute wear bursts with.
	SMWriteBytes uint64
	CPUBooked    time.Duration
}

// Sub returns the counter deltas s − o.
func (s CacheSnapshot) Sub(o CacheSnapshot) CacheSnapshot {
	return CacheSnapshot{
		CacheHits:     s.CacheHits - o.CacheHits,
		CacheMisses:   s.CacheMisses - o.CacheMisses,
		PooledHits:    s.PooledHits - o.PooledHits,
		PooledMisses:  s.PooledMisses - o.PooledMisses,
		SMReads:       s.SMReads - o.SMReads,
		Lookups:       s.Lookups - o.Lookups,
		FMDirectReads: s.FMDirectReads - o.FMDirectReads,
		RangeFMReads:  s.RangeFMReads - o.RangeFMReads,
		SMWriteBytes:  s.SMWriteBytes - o.SMWriteBytes,
		CPUBooked:     s.CPUBooked - o.CPUBooked,
	}
}

// Add returns the field-wise sum of s and o.
func (s CacheSnapshot) Add(o CacheSnapshot) CacheSnapshot {
	return CacheSnapshot{
		CacheHits:     s.CacheHits + o.CacheHits,
		CacheMisses:   s.CacheMisses + o.CacheMisses,
		PooledHits:    s.PooledHits + o.PooledHits,
		PooledMisses:  s.PooledMisses + o.PooledMisses,
		SMReads:       s.SMReads + o.SMReads,
		Lookups:       s.Lookups + o.Lookups,
		FMDirectReads: s.FMDirectReads + o.FMDirectReads,
		RangeFMReads:  s.RangeFMReads + o.RangeFMReads,
		SMWriteBytes:  s.SMWriteBytes + o.SMWriteBytes,
		CPUBooked:     s.CPUBooked + o.CPUBooked,
	}
}

// HitRate returns the row-cache hit rate of the snapshot (or delta).
func (s CacheSnapshot) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// FMServedRate returns the fraction of store row lookups served from fast
// memory — cache hits plus FM-direct reads — rather than SM devices. It
// is the tier-agnostic "hit rate" of adaptive placement: promoting a hot
// table to FM raises it even though those lookups stop being cache hits.
func (s CacheSnapshot) FMServedRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.SMReads)/float64(s.Lookups)
}

// RangeServedRate returns the fraction of store row lookups served from
// FM-resident row ranges — the share of the FM-served rate that
// partial-table promotion alone contributes.
func (s CacheSnapshot) RangeServedRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.RangeFMReads) / float64(s.Lookups)
}

// Snapshot captures the host's cumulative cache and IO counters. Hosts
// without a store report only the booked CPU.
func (h *Host) Snapshot() CacheSnapshot {
	s := CacheSnapshot{CPUBooked: h.cpuBooked}
	if h.store != nil {
		cs := h.store.CacheStats()
		ps := h.store.PooledStats()
		st := h.store.Stats()
		s.CacheHits, s.CacheMisses = cs.Hits, cs.Misses
		s.PooledHits, s.PooledMisses = ps.Hits, ps.Misses
		s.SMReads = st.SMReads
		s.Lookups = st.Lookups
		s.FMDirectReads = st.FMDirectReads
		s.RangeFMReads = st.RangeFMReads
		s.SMWriteBytes = h.store.DeviceStats().BytesWritten
	}
	return s
}

// FMServedRate equals Snapshot().FMServedRate() but reads only the two store
// counters it needs instead of folding every cache shard and device; 0 for
// a host without a store.
func (h *Host) FMServedRate() float64 {
	if h.store == nil {
		return 0
	}
	st := h.store.Stats()
	return CacheSnapshot{SMReads: st.SMReads, Lookups: st.Lookups}.FMServedRate()
}

func maxTime(a, b simclock.Time) simclock.Time {
	if a > b {
		return a
	}
	return b
}
