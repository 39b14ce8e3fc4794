package adapt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"time"

	"sdm/internal/metrics"
	"sdm/internal/obs"
	"sdm/internal/placement"
	"sdm/internal/simclock"

	"sdm/internal/core"
)

// Granularity selects what the controller moves between FM and SM: it
// chooses the planner's candidates, not its algorithm.
type Granularity int

// Controller granularities.
const (
	// Tables re-places whole tables — the §4.6/Table-5 greedy run
	// verbatim against live densities.
	Tables Granularity = iota
	// Ranges runs the same greedy over fixed-width row ranges
	// (core.Config.MigrationRangeBytes), so the DRAM budget holds the hot
	// head of several tables instead of every byte of a few; under drift
	// it recovers the FM-served rate while migrating a fraction of the
	// bytes a whole-table swap would move.
	Ranges
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case Tables:
		return "tables"
	case Ranges:
		return "ranges"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Config tunes an Adapter.
type Config struct {
	// Interval is the virtual-time period between controller evaluations
	// (default 200ms).
	Interval time.Duration
	// DRAMBudget bounds the bytes of FM-direct placement the controller
	// may use. 0 inherits the store's placement budget; one of the two
	// must be positive.
	DRAMBudget int64
	// BandwidthBytesPerSec caps migration IO issue rate in virtual time.
	// 0 means unpaced: a whole migration's chunks issue back to back,
	// stealing as much device time as the rings allow (the worst-case
	// tail hit the cap exists to bound).
	BandwidthBytesPerSec float64
	// ChunkBytes is the payload of one migration IO burst — the pacing
	// granularity of the bandwidth cap (default 64 KiB).
	ChunkBytes int
	// Smoothing is the telemetry EWMA weight of the newest window in
	// [0, 1]; 0 selects 0.5.
	Smoothing float64
	// Hysteresis is the demand-density advantage a challenger needs over
	// an FM incumbent before a swap is scheduled; must be >= 1 (1
	// disables stickiness), 0 selects 1.3.
	Hysteresis float64
	// Granularity selects whole-table (Tables, the default) or row-range
	// (Ranges) re-placement.
	Granularity Granularity
	// PaybackSeconds is the range-mode payback filter: a row range is only
	// worth migrating if its demand density would re-serve the range's own
	// bytes from FM within this horizon (density >= 1/PaybackSeconds).
	// Without it any positive tail density eventually fills the budget
	// with cold ranges, churning migration bandwidth for nothing — the
	// exact waste range granularity exists to avoid. 0 selects 10s;
	// ignored at table granularity.
	PaybackSeconds float64
	// WearDaysPerSecond compresses the §3 endurance budget onto the
	// virtual timeline for wear-aware placement: each virtual second
	// accrues the SM demote-write budget of this many rated days
	// (EnduranceDWPD × SM capacity × remaining rated-life fraction, per
	// core.WearInfo). The resulting per-eval-window budget both discounts
	// churny candidates in the packing greedy and caps the demote bytes
	// the actuator issues per window. 0 disables wear awareness (the
	// pre-wear behavior, bit-identical). Drift drills compress days of
	// traffic into virtual seconds, so values near 1 make the budget
	// binding at experiment scale.
	WearDaysPerSecond float64
}

// Validate reports configuration errors. Earlier revisions silently
// rewrote out-of-range values (a Hysteresis of 0.5 became 1.3), which hid
// real misconfigurations; CLIs surface these errors at flag-parse time.
func (c Config) Validate() error {
	// A non-finite float passes every range check below (NaN compares false)
	// and would silently change what the controller does.
	names := []string{"BandwidthBytesPerSec", "Smoothing", "Hysteresis", "PaybackSeconds", "WearDaysPerSecond"}
	for i, v := range []float64{c.BandwidthBytesPerSec, c.Smoothing, c.Hysteresis, c.PaybackSeconds, c.WearDaysPerSecond} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("adapt: %s must be finite, got %v", names[i], v)
		}
	}
	switch {
	case c.Interval < 0:
		return fmt.Errorf("adapt: Interval must be >= 0 (0 selects 200ms), got %v", c.Interval)
	case c.DRAMBudget < 0:
		return fmt.Errorf("adapt: DRAMBudget must be >= 0 (0 inherits the store's placement budget), got %d", c.DRAMBudget)
	case c.BandwidthBytesPerSec < 0:
		return fmt.Errorf("adapt: BandwidthBytesPerSec must be >= 0 (0 = unpaced), got %g", c.BandwidthBytesPerSec)
	case c.ChunkBytes < 0:
		return fmt.Errorf("adapt: ChunkBytes must be >= 0 (0 selects 64 KiB), got %d", c.ChunkBytes)
	case c.Smoothing < 0 || c.Smoothing > 1:
		return fmt.Errorf("adapt: Smoothing must be in [0, 1] (0 selects 0.5), got %g", c.Smoothing)
	case c.Hysteresis != 0 && c.Hysteresis < 1:
		return fmt.Errorf("adapt: Hysteresis must be >= 1 (1 disables stickiness; 0 selects 1.3), got %g", c.Hysteresis)
	case c.Granularity != Tables && c.Granularity != Ranges:
		return fmt.Errorf("adapt: unknown granularity %d", int(c.Granularity))
	case c.PaybackSeconds < 0:
		return fmt.Errorf("adapt: PaybackSeconds must be >= 0 (0 selects 10s), got %g", c.PaybackSeconds)
	case c.WearDaysPerSecond < 0:
		return fmt.Errorf("adapt: WearDaysPerSecond must be >= 0 (0 disables wear awareness), got %g", c.WearDaysPerSecond)
	}
	return nil
}

// maxMovesPerEval bounds how many swaps one evaluation may enqueue,
// limiting churn under noisy telemetry.
const maxMovesPerEval = 4

// defaulted fills zero fields; Validate has already rejected bad values.
func (c Config) defaulted() Config {
	if c.Interval == 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 64 << 10
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1.3
	}
	if c.PaybackSeconds == 0 {
		c.PaybackSeconds = 10
	}
	return c
}

// Stats counts what an Adapter has done.
type Stats struct {
	Evals         int
	Promotions    int
	Demotions     int
	MigratedBytes int64
	// RangeMoves is the subset of promotions+demotions that moved row
	// ranges rather than whole tables.
	RangeMoves int
	// Aborts counts migrations abandoned mid-flight (Step error or stall)
	// and rolled back.
	Aborts int
	// Planned counts the moves plan evaluations enqueued. Deferred counts
	// the candidates a plan wanted but deferred (busy or per-eval cap);
	// deferrals are only known while the policy explains its plans, so it
	// counts only while a tracer or a metrics registry is attached.
	Planned  int
	Deferred int
	// LastEval is the virtual time of the most recent evaluation.
	LastEval simclock.Time
}

// String renders the headline numbers.
func (s Stats) String() string {
	return fmt.Sprintf("evals=%d promotions=%d demotions=%d rangeMoves=%d aborts=%d migrated=%dB",
		s.Evals, s.Promotions, s.Demotions, s.RangeMoves, s.Aborts, s.MigratedBytes)
}

// Adapter is the per-host adaptive-tiering control loop: a pure policy
// turns telemetry into a ranked move plan (wear-aware when
// Config.WearDaysPerSecond is set), and an actuator owns the
// Begin/Step/Commit/Abort migration machinery, pacing chunks under the
// bandwidth cap — and, when a fleet coordinator installs a window
// schedule (SetWindows), only inside this replica's granted migration
// windows. It implements serving.Tuner; install it with Host.SetTuner.
// Not safe for concurrent use — each host owns one Adapter, mirroring the
// one-store-per-host discipline.
type Adapter struct {
	cfg   Config
	store *core.Store
	telem *telemetry

	pol *policy
	act *actuator

	nextEval simclock.Time
	stats    Stats

	// tracer receives each evaluation's plan verdicts (nil = tracing
	// off, the default).
	tracer *obs.Collector

	// metered is set once RegisterMetrics has run: the deferred-candidate
	// series needs the policy to explain its plans.
	metered bool

	// pending is the scratch buffer the busy set is collected into.
	pending []move
}

// New builds an Adapter over a store opened with core.Config.ReserveSM.
func New(store *core.Store, cfg Config) (*Adapter, error) {
	if store == nil {
		return nil, errors.New("adapt: nil store")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.defaulted()
	budget := cfg.DRAMBudget
	if budget <= 0 {
		budget = store.Config().Placement.DRAMBudget
	}
	if budget <= 0 {
		return nil, errors.New("adapt: no DRAM budget (one of Config.DRAMBudget or the store's placement budget must be positive)")
	}
	swappable := false
	for _, ts := range store.TableStats(nil) {
		if ts.Swappable {
			swappable = true
			break
		}
	}
	if !swappable {
		return nil, errors.New("adapt: store has no swappable tables (open it with core.Config.ReserveSM)")
	}
	a := &Adapter{
		cfg:      cfg,
		store:    store,
		telem:    newTelemetry(cfg.Smoothing),
		pol:      &policy{cfg: cfg, budget: budget},
		nextEval: store.LoadDone() + simclock.Time(cfg.Interval),
	}
	a.act = newActuator(store, cfg.ChunkBytes, cfg.BandwidthBytesPerSec, &a.stats)
	if cfg.WearDaysPerSecond > 0 {
		// Ungoverned wear awareness: slice this host's own timeline into
		// contiguous eval-interval windows so the demote budget applies
		// per window even without a fleet coordinator.
		a.act.setWindows(a.selfWindows)
	}
	return a, nil
}

// selfWindows is the ungoverned window schedule: contiguous
// eval-interval-wide windows with the endurance-derived demote budget
// (no gaps, so pacing is unchanged — only the per-window write budget
// binds).
func (a *Adapter) selfWindows(now simclock.Time) Window {
	iv := simclock.Time(a.cfg.Interval)
	open := now / iv * iv
	return Window{
		Open:              open,
		Close:             open + iv,
		DemoteBudgetBytes: a.windowDemoteBudget(),
	}
}

// windowDemoteBudget derives one window's SM demote-write allowance from
// the device endurance model: the DWPD rating scaled by remaining rated
// life (core.WearInfo.DailyWriteBudgetBytes), compressed onto the virtual
// timeline by Config.WearDaysPerSecond. Wear awareness is enabled
// (WearDaysPerSecond > 0), so a budget that rounds below one byte clamps
// to 1 — the tightest enforceable budget — rather than truncating to the
// "unbudgeted" sentinel and disabling enforcement exactly where it
// should bind hardest.
func (a *Adapter) windowDemoteBudget() int64 {
	b := int64(a.store.Wear().DailyWriteBudgetBytes() *
		a.cfg.WearDaysPerSecond * a.cfg.Interval.Seconds())
	if b < 1 {
		b = 1
	}
	return b
}

// SetWindows installs a fleet coordinator's migration window schedule on
// the actuator (replacing the ungoverned wear windows, if any). The
// schedule must be a pure function of virtual time — see WindowFn.
func (a *Adapter) SetWindows(fn WindowFn) { a.act.setWindows(fn) }

// SetTracer installs the decision-trace collector this adapter's plan
// verdicts are recorded into (nil detaches — the zero-overhead default).
// The fleet wires this up from Fleet.SetTrace.
func (a *Adapter) SetTracer(c *obs.Collector) {
	a.tracer = c
	a.pol.explain = c != nil || a.metered
}

// RegisterMetrics registers the adapter's instrument catalog on r, every
// instrument reading the adapter's own state: the control loop's
// eval/promotion/demotion/abort counters, migrated bytes and plan/defer
// counts from Stats, the pending-migration gauge, and the wear budget the
// current window packs against. Deferred candidates are only knowable
// when the policy explains its plans, so metering turns explanation on
// (pure observation — plans and moves are unchanged). A nil registry
// registers nothing.
func (a *Adapter) RegisterMetrics(r *metrics.Registry) {
	if r == nil {
		return
	}
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_evals", Help: "Placement re-evaluations run."},
		func() uint64 { return uint64(a.stats.Evals) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_promotions", Help: "Committed SM->FM moves."},
		func() uint64 { return uint64(a.stats.Promotions) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_demotions", Help: "Committed FM->SM moves."},
		func() uint64 { return uint64(a.stats.Demotions) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_aborts", Help: "Migrations abandoned mid-flight and rolled back."},
		func() uint64 { return uint64(a.stats.Aborts) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_migrated_bytes", Help: "Bytes moved by committed migrations.", Unit: "bytes"},
		func() uint64 { return uint64(a.stats.MigratedBytes) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_planned_moves", Help: "Moves enqueued by plan evaluations."},
		func() uint64 { return uint64(a.stats.Planned) })
	r.NewCounterFunc(metrics.Desc{Name: "sdm_adapt_deferred", Help: "Candidates wanted but deferred (busy or per-eval cap)."},
		func() uint64 { return uint64(a.stats.Deferred) })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_adapt_pending_migrations", Help: "Queued plus in-flight moves."},
		func(simclock.Time) float64 { return float64(a.PendingMigrations()) })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_adapt_wear_window_bytes", Help: "Demote-write allowance of the current migration window.", Unit: "bytes"},
		func(now simclock.Time) float64 { return float64(a.wearBudget(now).WindowBytes) })
	r.NewGaugeFunc(metrics.Desc{Name: "sdm_adapt_wear_spent_bytes", Help: "Demote-write bytes already spent in the current window.", Unit: "bytes"},
		func(now simclock.Time) float64 { return float64(a.wearBudget(now).SpentBytes) })
	a.metered = true
	a.pol.explain = true
}

// Stats returns what the adapter has done so far.
func (a *Adapter) Stats() Stats { return a.stats }

// PendingMigrations returns queued plus in-flight move count.
func (a *Adapter) PendingMigrations() int { return a.act.pending() }

// BeforeAdmit implements serving.Tuner: it advances migration pacing and,
// on interval boundaries, re-evaluates placement. It runs before the
// query executes, so a committed swap is visible to the very next query.
func (a *Adapter) BeforeAdmit(now simclock.Time) {
	a.act.advance(now)
	if now < a.nextEval {
		return
	}
	// One evaluation per elapsed interval (idle hosts don't replay a
	// backlog of stale evaluations).
	for a.nextEval <= now {
		a.nextEval += simclock.Time(a.cfg.Interval)
	}
	// The evaluation (telemetry sample, plan, reconcile, migration IO)
	// is the migrate phase under a CPU profile; it runs once per
	// interval, so the label plumbing stays off the per-query path.
	pprof.Do(context.Background(), pprof.Labels("sdm_phase", "migrate"), func(context.Context) {
		a.telem.sample(now, a.store)
		a.stats.Evals++
		a.stats.LastEval = now

		// The busy set is collected before reconciliation: a move the
		// fresh plan is about to drop still blocks re-planning its table
		// this eval (its slot frees by the next one).
		a.pending = a.act.appendPending(a.pending[:0])
		pl := a.pol.plan(a.telem, a.pending, a.wearBudget(now))
		for _, d := range pl.decisions {
			a.tracer.Plan(now, d)
			if d.Action == "defer" {
				a.stats.Deferred++
			}
		}
		a.stats.Planned += len(pl.moves)
		// A queued move survives only if the fresh plan still wants it.
		a.act.reconcile(pl.wants)
		a.act.enqueue(pl.moves)
		a.act.advance(now)
	})
}

// wearBudget assembles the packing greedy's endurance constraint from the
// actuator's current window: its demote allowance and what this window
// has already written.
func (a *Adapter) wearBudget(now simclock.Time) placement.WearBudget {
	w, ok := a.act.windowAt(now)
	if !ok || w.DemoteBudgetBytes <= 0 {
		return placement.WearBudget{}
	}
	return placement.WearBudget{
		WindowBytes: w.DemoteBudgetBytes,
		SpentBytes:  a.act.spentInWindow(w),
	}
}

// AfterAdmit does nothing: the adapter keys everything off arrival times.
// It is not part of serving.Tuner; it stays because frozen bench/ calls it.
func (a *Adapter) AfterAdmit(arrive, done simclock.Time) {}

// coalesce merges adjacent moves of the same table and direction into
// single [Lo, Hi) migrations (a whole-table move spans its table, so it has
// no neighbour to merge with), so one hot head of k contiguous ranges costs
// one migration, not k.
func coalesce(jobs []move) []move {
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].Table != jobs[j].Table {
			return jobs[i].Table < jobs[j].Table
		}
		return jobs[i].Lo < jobs[j].Lo
	})
	out := jobs[:0]
	for _, j := range jobs {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Table == j.Table && last.Promote == j.Promote && last.Hi == j.Lo {
				last.Hi = j.Hi
				continue
			}
		}
		out = append(out, j)
	}
	return out
}
