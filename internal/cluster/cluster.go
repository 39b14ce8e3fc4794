// Package cluster is a deterministic virtual-time fleet simulator: N
// serving.Host replicas behind one WeightedRouter, which routes each query
// to the argmax of a "name=weight,..." sum of named scorers (ParseScorers).
// It is the serving-time realization of the paper's fleet-level story:
// Tables 8/9/11 size fleets by multiplying one host's QPS, and Fig. 4c
// shows sticky routing raises per-host temporal locality — here a single
// open-loop arrival process over one shared Zipf user population is split
// across live hosts, so routing policy directly moves per-host cache hit
// rates, tail latency and the achieved fleet QPS that power.Provision
// consumes. Failure scenarios kill a host mid-run, reroute its users via
// the consistent ring and expose the §A.4 cache-warmup latency spike.
//
// Determinism contract (mirroring the PR 1 query-engine discipline): every
// virtual-time result is bit-identical for a fixed seed at any
// Config.HostWorkers setting. The front-end routes sequentially in arrival
// order and each host executes its queries FIFO at admission times fixed
// before execution, so where a query runs changes wall-clock time only. Run
// picks between two executions from state it already observes:
//
//   - Queued: each routed job is sent on its host's buffered channel to one
//     goroutine per host, at most HostWorkers of them executing at once, so
//     the front-end runs ahead of the hosts until a channel fills. Used
//     when nothing reads host state mid-run (no Feedback() router, no
//     trace); the only barriers are the failure-drill index and run end,
//     both one WaitGroup wait for every sent job.
//   - Inline: a router that reads live host state (Feedback() == true) and
//     any traced run need every routed job finished before the next
//     decision. Under that rule no two hosts ever execute at once, so Run
//     executes each job on the calling goroutine straight from the
//     generator's arena: nothing is ever outstanding, the View is exactly
//     "after all routed jobs", and no goroutine, query copy or cross-thread
//     wake-up is spent per query.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/simclock"
	"sdm/internal/workload"
	"sdm/internal/xrand"
)

// Config tunes a Fleet run.
type Config struct {
	// HostWorkers bounds queued execution: how many hosts execute
	// concurrently (OS goroutines) when the front-end may run ahead of
	// them. Barrier'd runs (a Feedback() router, or tracing on) execute on
	// the caller and ignore it. Any value yields bit-identical virtual-time
	// results; it only changes wall-clock time. <= 0 selects one worker per
	// host.
	HostWorkers int
	// Windows is the number of equal virtual-time windows in
	// Result.Windows (default 8).
	Windows int
	// Seed drives the fleet arrival process.
	Seed uint64
}

// Fleet runs N hosts behind one router and one shared-population workload.
type Fleet struct {
	cfg     Config
	router  Router
	gen     *workload.Generator
	rng     *xrand.RNG
	members []*member

	// routeCtx carries the front-end's sdm_phase=route+admit pprof label
	// (wall-clock profiling only), built once in New like member.execCtx.
	routeCtx context.Context

	// lastHost tracks each user's most recent target, and rerouted the
	// users that moved off a failed host — both router-agnostic.
	lastHost map[int64]int
	rerouted map[int64]struct{}
	failedAt simclock.Time
	failed   int

	// pending counts a queued Run's jobs sent and not yet executed (or
	// skipped): the front-end Adds one per send, the worker marks it Done.
	// pending.Wait is the barrier at the failure index and at run end.
	pending sync.WaitGroup

	// routed counts the queries routed to each host this Run — the
	// front-end's own load ledger, exposed through View.Routed. Reused
	// (zeroed in place) across Runs, like records and the class ledgers
	// below: repeated Runs on one fleet allocate no per-run bookkeeping.
	// diverted counts this Run's diversions (see diverts).
	routed   []int
	diverted int

	// records is the per-query outcome buffer, grown once and reused by
	// every Run (aggregate consumes it before Run returns); tallies is
	// what aggregate folds it into, reused the same way.
	records []record
	tallies runFold

	// Optional SLO serving layer: a migration-window coordinator and the
	// per-host adapters (both surfaced through the View for
	// migration-aware scorers), and front-end admission control.
	coord     *Coordinator
	adapters  []*adapt.Adapter
	admission *admitState

	// trace is the decision-trace state (SetTrace); nil when tracing is
	// off — the zero-overhead path.
	trace *tracer

	// meter is the metrics-plane state (SetMetrics); nil when metrics are
	// off — like trace, the nil path costs nothing and changes nothing.
	meter *meter

	// classes is this Run's admission ledger, indexed by SLO class.
	classes []classLedger

	// armed failure for the next Run (ScheduleFailure); -1 when disarmed.
	failHost int
	failFrac float64

	// armed drift drill for the next Run (ScheduleDrift).
	driftArmed bool
	driftFrac  float64
	driftAt    simclock.Time
}

// member serializes one host's execution. exec runs one routed job; an
// inline Run calls it on the front-end goroutine and leaves jobs and free
// idle. A queued Run sends jobs on jobs, the member's FIFO, where a full
// channel stalls the front-end; a per-Run goroutine (loop) receives and
// executes them in order.
type member struct {
	id    int
	host  *serving.Host
	alive bool

	// execCtx carries this member's sdm_phase=exec / sdm_host pprof labels,
	// built once in New: the worker goroutine adopts it for a queued Run,
	// the front-end switches to it around each inline exec.
	execCtx context.Context

	// lastPush is the latest admission time pushed to this host. Hosts
	// require non-decreasing admission times; queued (delayed) admissions
	// can land behind an already-pushed later arrival, so pushes clamp to
	// it. Without admission control arrivals are already monotone and the
	// clamp never fires.
	lastPush simclock.Time

	// meter is this host's live metrics sampling state (nil = metrics
	// off); only exec touches it during a Run.
	meter *ticker

	// jobs is the queued Run's FIFO (capacity pushBound). err is the
	// worker's first execution error: written only by the worker, read by
	// the front-end after pending.Wait.
	jobs chan job
	err  error

	// free recycles the deep-copy buffers that carry arena-backed
	// generator queries to this member's goroutine: the front-end takes a
	// buffer per routed query (copyQuery), the worker returns it after
	// execution. Its capacity, pushBound+2, is the most a member holds.
	// hiIdx/hiPools/hiOps are the member's high-water query sizes
	// (front-end only): every buffer is Reserved to the high-water mark, so
	// a recycled buffer reallocates at most once per new maximum instead of
	// creeping toward the workload's long-tail sizes buffer by buffer.
	free    chan *workload.QueryBuf
	hiIdx   int
	hiPools int
	hiOps   int
}

type job struct {
	idx int // -1 stops the worker
	at  simclock.Time
	// q owns the query's deep-copied storage for the duration of the job;
	// the worker returns it to free afterwards.
	q *workload.QueryBuf
}

// record is one query's outcome, written by the owning member's exec at
// its private index and aggregated in index order after the run. Shed
// queries leave their record zero (ok == false) with only class set.
type record struct {
	arrive, done simclock.Time
	host         int
	user         int64
	class        int
	delta        serving.CacheSnapshot
	ok           bool
}

// New assembles a fleet from prebuilt hosts (each with its own store —
// hosts must not share mutable state) and a routing policy. Failure drills
// are armed separately with ScheduleFailure.
func New(hosts []*serving.Host, router Router, cfg Config) (*Fleet, error) {
	if len(hosts) == 0 {
		return nil, errors.New("cluster: fleet needs at least one host")
	}
	if router == nil {
		return nil, errors.New("cluster: fleet needs a router")
	}
	// An affinity ring built for another fleet size would pin users to a
	// subset of the hosts, or route to hosts this fleet lacks.
	for _, sw := range router.scorers {
		if sw.ring != nil && sw.ring.hosts != len(hosts) {
			return nil, fmt.Errorf("cluster: router %q: affinity ring built for %d hosts cannot route a %d-host fleet",
				router.name, sw.ring.hosts, len(hosts))
		}
	}
	if cfg.Windows <= 0 {
		cfg.Windows = 8
	}
	f := &Fleet{
		cfg:      cfg,
		router:   router,
		rng:      xrand.New(cfg.Seed ^ 0xf1ee7),
		lastHost: make(map[int64]int),
		rerouted: make(map[int64]struct{}),
		failed:   -1,
		failHost: -1,
		routeCtx: pprof.WithLabels(context.Background(), pprof.Labels("sdm_phase", "route+admit")),
	}
	for i, h := range hosts {
		f.members = append(f.members, &member{
			id: i, host: h, alive: true,
			execCtx: pprof.WithLabels(context.Background(),
				pprof.Labels("sdm_phase", "exec", "sdm_host", strconv.Itoa(i))),
			jobs: make(chan job, pushBound),
			free: make(chan *workload.QueryBuf, pushBound+2),
		})
	}
	return f, nil
}

// Spec is a fleet as data: every input of Build's wiring sequence.
type Spec struct {
	// Hosts is the fleet size (> 0).
	Hosts int
	// Store configures each host's SDM store (HostSet derives per-host
	// seeds); nil builds flat DRAM hosts.
	Store *core.Config
	// Host tunes every serving host.
	Host serving.Config
	// Router routes every query (required).
	Router Router
	// Fleet tunes the run: host workers, windows, arrival seed.
	Fleet Config
	// Workload configures the shared-population generator.
	Workload workload.Config
	// Adapt gives every SDM-backed host an adaptive-tiering adapter
	// (AttachAdaptive); Coord, which requires Adapt, also staggers their
	// migration windows (AttachCoordinated). Nil leaves placement static.
	Adapt *adapt.Config
	Coord *CoordConfig
	// Admit installs front-end admission control when set.
	Admit *AdmitConfig
	// Trace is the decision-trace level (zero: off).
	Trace obs.Config
	// Metrics attaches the metrics plane when set.
	Metrics *MetricsConfig
}

// Build assembles the fleet spec describes, in the one order its parts
// need: hosts, their adapters and coordinator, the fleet, its admission,
// trace and metrics planes, then the generator. Failure and drift drills
// are armed on the result (ScheduleFailure, ScheduleDrift).
func Build(inst *model.Instance, tables []*embedding.Table, spec Spec) (*Fleet, error) {
	switch {
	case spec.Hosts <= 0:
		return nil, fmt.Errorf("cluster: Spec.Hosts must be > 0, got %d", spec.Hosts)
	case spec.Router == nil:
		return nil, errors.New("cluster: Spec.Router is required")
	case spec.Coord != nil && spec.Adapt == nil:
		return nil, errors.New("cluster: Spec.Coord requires Spec.Adapt")
	}
	hosts, err := HostSet(inst, tables, spec.Hosts, spec.Store, spec.Host)
	if err != nil {
		return nil, err
	}
	var adapters []*adapt.Adapter
	var coord *Coordinator
	switch {
	case spec.Coord != nil:
		adapters, coord, err = AttachCoordinated(hosts, *spec.Adapt, *spec.Coord)
	case spec.Adapt != nil:
		adapters, err = AttachAdaptive(hosts, *spec.Adapt)
	}
	if err != nil {
		return nil, err
	}
	f, err := New(hosts, spec.Router, spec.Fleet)
	if err != nil {
		return nil, err
	}
	f.SetCoordinator(coord)
	f.SetAdapters(adapters)
	if spec.Admit != nil {
		if err := f.SetAdmission(*spec.Admit); err != nil {
			return nil, err
		}
	}
	if err := f.SetTrace(spec.Trace); err != nil {
		return nil, err
	}
	if spec.Metrics != nil {
		if err := f.SetMetrics(*spec.Metrics); err != nil {
			return nil, err
		}
	}
	gen, err := workload.NewGenerator(inst, spec.Workload)
	if err != nil {
		return nil, err
	}
	f.SetGenerator(gen)
	return f, nil
}

// Adapters returns the per-host adapters (nil without Spec.Adapt; entries
// for storeless hosts are nil), for AdapterStats.
func (f *Fleet) Adapters() []*adapt.Adapter { return f.adapters }

// SetGenerator installs the shared-population workload generator feeding
// the fleet's arrival process. Run requires one.
func (f *Fleet) SetGenerator(gen *workload.Generator) { f.gen = gen }

// SetCoordinator surfaces the fleet's migration-window schedule through
// the View (View.InMigrationWindow), so window-aware scorers can steer
// traffic off the replica that currently holds the migration grant. Pass
// the Coordinator returned by AttachCoordinated.
func (f *Fleet) SetCoordinator(c *Coordinator) { f.coord = c }

// SetAdapters surfaces the per-host adaptive-tiering backlogs through the
// View (View.MigrationBacklog); adapters[i] must belong to hosts[i] as
// returned by AttachAdaptive/AttachCoordinated (nil entries are hosts
// without adapters).
func (f *Fleet) SetAdapters(as []*adapt.Adapter) {
	f.adapters = as
	f.installTracers()
	f.installMeters()
}

// SetAdmission installs front-end token-bucket admission control: each
// arrival is charged against its SLO class's bucket before routing, and
// exhausted buckets shed or delay per the class policy. A zero-value
// config (no classes) admits everything.
func (f *Fleet) SetAdmission(cfg AdmitConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	f.admission = newAdmitState(cfg)
	return nil
}

// ScheduleFailure arms a host kill for the next Run: host dies after frac
// of that run's queries have been routed (frac <= 0 selects 0.5, frac > 1
// is an error), the router drops it, its users remap, and the survivors'
// cold caches produce the §A.4 warmup spike. Arm it after any warmup Runs
// so the spike is measured on steady-state caches. A host can only fail
// once per fleet lifetime.
func (f *Fleet) ScheduleFailure(host int, frac float64) error {
	if f.failed >= 0 {
		return fmt.Errorf("cluster: host %d already failed; one failure per fleet lifetime", f.failed)
	}
	if host < 0 || host >= len(f.members) {
		return fmt.Errorf("cluster: fail host %d of %d", host, len(f.members))
	}
	if len(f.members) < 2 {
		return errors.New("cluster: cannot fail the only host")
	}
	if !(frac <= 1) || math.IsInf(frac, 0) {
		return fmt.Errorf("cluster: failure frac must be finite and <= 1, got %g", frac)
	}
	if frac <= 0 {
		frac = 0.5
	}
	f.failHost, f.failFrac = host, frac
	return nil
}

// ScheduleDrift arms a hot-set rotation for the next Run (the drift
// counterpart of ScheduleFailure): after frac of that run's queries have
// been routed (frac <= 0 selects 0.5), the shared generator's drift phase
// is forced forward one rotation, so the hot user cohort, the spotlight
// tables and every entity-keyed row sequence shift fleet-wide between one
// arrival and the next. Static placements stay degraded afterwards;
// adaptive hosts (AttachAdaptive) re-converge. Unlike failures, drift
// drills may be re-armed run after run.
func (f *Fleet) ScheduleDrift(frac float64) error {
	if !(frac <= 1) || math.IsInf(frac, 0) {
		return fmt.Errorf("cluster: drift frac must be finite and <= 1, got %g", frac)
	}
	if frac <= 0 {
		frac = 0.5
	}
	f.driftArmed, f.driftFrac = true, frac
	return nil
}

// fleetView adapts the fleet to the router's View.
type fleetView struct{ f *Fleet }

func (v fleetView) Hosts() int { return len(v.f.members) }

func (v fleetView) Alive(id int) bool {
	return id >= 0 && id < len(v.f.members) && v.f.members[id].alive
}

func (v fleetView) OutstandingAt(id int, t simclock.Time) int {
	// Only reached from Feedback() routers and the tracer, i.e. on inline
	// runs: every routed job has already executed on this goroutine, so
	// the host is idle and the read is race-free.
	return v.f.members[id].host.OutstandingAt(t)
}

func (v fleetView) Routed(id int) int {
	if id < 0 || id >= len(v.f.routed) {
		return 0
	}
	return v.f.routed[id]
}

func (v fleetView) FMServedRate(id int) float64 {
	// Feedback-only, like OutstandingAt: the host is idle on inline runs.
	return v.f.members[id].host.FMServedRate()
}

func (v fleetView) WearHeadroom(id int) float64 {
	s := v.f.members[id].host.Store()
	if s == nil {
		return 1
	}
	return s.Wear().LifeFrac()
}

func (v fleetView) InMigrationWindow(id int, t simclock.Time) bool {
	if v.f.coord == nil {
		// No coordinator gates migration IO: a migrating host may issue
		// at any instant, i.e. it is always "in window".
		return true
	}
	w := v.f.coord.WindowFor(id, t)
	return w.Open <= t && t < w.Close
}

func (v fleetView) MigrationBacklog(id int) int {
	if id < 0 || id >= len(v.f.adapters) || v.f.adapters[id] == nil {
		return 0
	}
	return v.f.adapters[id].PendingMigrations()
}

// Run offers n queries open-loop at the target fleet QPS (Poisson
// arrivals), routes each to a host, and aggregates per-host and fleet-wide
// results. Repeated Runs continue in virtual time with warm caches.
func (f *Fleet) Run(qps float64, n int) (*Result, error) {
	if !(qps > 0) || math.IsInf(qps, 0) || n <= 0 {
		return nil, fmt.Errorf("cluster: bad run parameters qps=%g n=%d", qps, n)
	}
	if f.gen == nil {
		return nil, errors.New("cluster: no generator installed (SetGenerator)")
	}

	if cap(f.records) < n {
		f.records = make([]record, n)
	}
	records := f.records[:n]
	for i := range records {
		records[i] = record{}
	}
	// A failed Run leaves its host error behind; its queues were drained
	// before it returned.
	for _, m := range f.members {
		m.err = nil
	}
	// A run that needs every routed job finished before the next decision —
	// a router reading live host state, or the tracer reading Outstanding —
	// executes inline on this goroutine; only a run whose front-end may get
	// ahead of its hosts pays for worker goroutines and query copies.
	inline := f.router.Feedback() || f.trace != nil
	stopWorkers := func() {}
	if !inline {
		stopWorkers = f.startWorkers(records)
	}

	start := f.members[0].host.Ready()
	for _, m := range f.members[1:] {
		if r := m.host.Ready(); r > start {
			start = r
		}
	}

	failIdx := -1
	if f.failHost >= 0 && f.failed < 0 {
		failIdx = int(f.failFrac * float64(n))
		if failIdx >= n {
			failIdx = n - 1
		}
	}
	driftIdx := -1
	if f.driftArmed {
		driftIdx = int(f.driftFrac * float64(n))
		if driftIdx >= n {
			driftIdx = n - 1
		}
		f.driftArmed = false
	}

	if cap(f.routed) < len(f.members) {
		f.routed = make([]int, len(f.members))
	} else {
		f.routed = f.routed[:len(f.members)]
		for i := range f.routed {
			f.routed[i] = 0
		}
	}
	f.diverted = 0
	f.classes = f.classes[:0]
	if f.trace != nil {
		f.trace.reset()
	}
	f.meter.reset(f.members)

	// Wall-clock profiling: the front-end goroutine carries the
	// route+admit phase label for the duration of the run; host execution
	// is labelled exec (worker goroutines, or per job inline) and adapter
	// evaluation migrate.
	pprof.SetGoroutineLabels(f.routeCtx)
	defer pprof.SetGoroutineLabels(context.Background())

	view := fleetView{f}
	t := start
	fired := false
	drifted := false
	var runErr error
	for i := 0; i < n; i++ {
		gap := f.rng.Exp(1 / qps * float64(time.Second))
		if !(gap < float64(math.MaxInt64-t)) {
			runErr = fmt.Errorf("cluster: qps=%g puts query %d past the end of virtual time", qps, i)
			break
		}
		t += simclock.Time(gap)
		f.meter.feTick(t)
		if i == driftIdx {
			// The rotation lands between arrivals: query i is the first
			// of the new regime.
			f.gen.ForceRotation()
			f.driftAt = t
			drifted = true
		}
		// NextShared reuses the generator's arena: the query is only valid
		// until the next draw. An inline exec is done with it by then; a
		// queued push deep-copies it into a member-owned recycled buffer
		// before the worker consumes it. Everything the front-end itself
		// touches (UserID, Class) is a value field, safe without a copy.
		q := f.gen.NextShared()
		if i == failIdx {
			if runErr = f.syncAll(); runErr != nil {
				break
			}
			f.members[f.failHost].alive = false
			f.failed = f.failHost
			f.failedAt = t
			fired = true
		}
		if q.Class >= 0 {
			f.class(q.Class, famOffered).offered++
		}
		at := t
		if f.admission != nil {
			admitAt, tokens, ok, err := f.admission.admit(q.Class, t)
			if err != nil {
				runErr = err
				break
			}
			if f.trace != nil {
				f.traceAdmit(t, q.Class, tokens, admitAt, ok)
			}
			if !ok {
				f.class(q.Class, famShed).shed++
				records[i] = record{user: q.UserID, class: q.Class}
				continue
			}
			if admitAt > t {
				l := f.class(q.Class, famDelayed)
				l.delayed++
				l.delay += (admitAt - t).Seconds()
			}
			at = admitAt
		}
		var id int
		if f.trace != nil {
			id = f.traceRoute(i, q, at, view)
		} else {
			id = f.router.Route(q, at, view)
		}
		if id < 0 || id >= len(f.members) || !f.members[id].alive {
			runErr = fmt.Errorf("cluster: %s routed query %d to unavailable host %d", f.router.Name(), i, id)
			break
		}
		prev := f.prevHost(q.UserID)
		if f.failed >= 0 && prev == f.failed && id != f.failed {
			f.rerouted[q.UserID] = struct{}{}
		}
		if f.diverts(prev, id) {
			f.diverted++
		}
		f.lastHost[q.UserID] = id
		f.routed[id]++
		m := f.members[id]
		if at < m.lastPush {
			// Hosts require non-decreasing admission times; a queued
			// admission can land behind this host's latest push.
			at = m.lastPush
		}
		m.lastPush = at
		if !inline {
			f.pending.Add(1)
			m.jobs <- job{idx: i, at: at, q: m.copyQuery(q)}
			continue
		}
		pprof.SetGoroutineLabels(m.execCtx)
		err := m.exec(i, at, q, records)
		pprof.SetGoroutineLabels(f.routeCtx)
		if err != nil {
			runErr = hostError(m.id, err)
			break
		}
	}
	if err := f.syncAll(); runErr == nil {
		runErr = err
	}
	stopWorkers()
	if runErr != nil {
		return nil, runErr
	}
	if f.trace != nil {
		f.traceFinalize(records)
	}
	return f.aggregate(qps, start, t, records, fired, drifted), nil
}

// prevHost returns the host user's previous query was routed to, or -1 for
// a first-seen user.
func (f *Fleet) prevHost(user int64) int {
	if id, ok := f.lastHost[user]; ok {
		return id
	}
	return -1
}

// diverts reports whether routing a user whose previous host was prev to
// id is a diversion: a move off a previous host that is still alive. A
// move off a dead host is forced, not chosen (those users are
// Result.ReroutedUsers).
func (f *Fleet) diverts(prev, id int) bool {
	return prev >= 0 && prev != id && f.members[prev].alive
}

// HostQPS is one host's max QPS at a p95 latency budget, the number Tables
// 8 and 9 turn into hosts and power. The host (flat DRAM tables when scfg
// is nil) serves as a fleet of one with arrivals and 1000 users drawn from
// seed, is warmed at 50 QPS (Warm, §A.4), then searched with probes of
// max(queries/2+100, 400) queries. It returns the rate, its probe's Result
// and the warm-up.
func HostQPS(inst *model.Instance, tables []*embedding.Table, scfg *core.Config, hcfg serving.Config, seed uint64, budget time.Duration, queries int) (float64, *Result, Warmup, error) {
	f, err := Build(inst, tables, Spec{
		Hosts: 1, Store: scfg, Host: hcfg, Router: NewRoundRobin(),
		Fleet: Config{Seed: seed}, Workload: workload.Config{Seed: seed, NumUsers: 1000},
	})
	if err != nil {
		return 0, nil, Warmup{}, err
	}
	warm, err := f.Warm(50)
	if err != nil {
		return 0, nil, warm, err
	}
	qps, res, err := f.maxQPSAtLatency(budget, max(queries/2+100, searchMinProbe))
	return qps, res, warm, err
}

// Warmup is what Warm ran: its queries in all, and its last window's rates.
type Warmup struct {
	Queries               int
	HitRate, FMServedRate float64
}

// The warm-up's fixed rules.
const (
	warmWindow = 256     // the first window; each next one doubles, a fresh sample as large as all before it
	warmFloor  = 0.005   // a move this small is settled: the capacity search resolves 0.5 %
	warmZ      = 2       // a move within this many standard errors is sampling, not warming
	warmCap    = 1 << 17 // queries in all: 4× the slowest warm-up in the tree (fig6's DRAM hosts)
)

// Warm runs the fleet at qps in windows of warmWindow, 2·warmWindow, …
// queries until, between the last two, the row-cache hit rate and the
// FM-served rate each moved by at most warmFloor or warmZ standard errors
// of the move. It errors when the next window would pass warmCap queries.
func (f *Fleet) Warm(qps float64) (Warmup, error) { return f.warm(qps, warmCap) }

func (f *Fleet) warm(qps float64, limit int) (Warmup, error) {
	var prev *Result
	n := 0
	for w := warmWindow; n+w <= limit; w *= 2 {
		res, err := f.Run(qps, w)
		if err != nil {
			return Warmup{}, err
		}
		if n += w; prev != nil && settled(prev, res) {
			return Warmup{n, res.HitRate, res.FMServedRate}, nil
		}
		prev = res
	}
	return Warmup{}, fmt.Errorf("cluster: rates still moving after %d warm-up queries", n)
}

// settled applies Warm's rule to runs a and b. A run's squared standard
// error is von Neumann's variance of its non-empty windows' rates (half the
// mean square successive difference: a trend does not inflate it, while a
// fleet whose migrations keep moving a rate settles on that spread) over
// their count.
func settled(a, b *Result) bool {
	within := func(x, y float64, rate func(WindowStat) float64) bool {
		var v float64
		for _, ws := range [][]WindowStat{a.Windows, b.Windows} {
			ws = slices.DeleteFunc(slices.Clone(ws), func(w WindowStat) bool { return w.Queries == 0 })
			for i := 1; i < len(ws); i++ {
				d := rate(ws[i]) - rate(ws[i-1])
				v += d * d / float64(2*(len(ws)-1)*len(ws))
			}
		}
		return math.Abs(y-x) <= max(warmFloor, warmZ*math.Sqrt(v))
	}
	return within(a.HitRate, b.HitRate, func(w WindowStat) float64 { return w.HitRate }) &&
		within(a.FMServedRate, b.FMServedRate, func(w WindowStat) float64 { return w.FMRate })
}

// The capacity search's fixed rules.
const (
	searchFloorQPS   = 5.0   // the first probe's rate
	searchResolution = 1.005 // stop once hi/lo is at most this
	searchMinProbe   = 400   // queries per probe: ≥ 20 samples above its p95
	searchGuardQPS   = 1e12  // a rate past this that passes is an error
)

// maxQPSAtLatency doubles the offered rate from searchFloorQPS until a probe
// of n queries fails, then bisects geometrically until hi/lo ≤
// searchResolution, one Run per probe (state carries over: warm first). A
// probe passes when its p95 is within budget AND it achieves ≥ 0.8× the
// offered rate, since overload stretches the completion horizon before a
// short probe's percentiles show it. It returns the highest passing rate
// and its probe's Result; the floor probe's when the floor fails.
func (f *Fleet) maxQPSAtLatency(budget time.Duration, n int) (float64, *Result, error) {
	lo, hi, rate := 0.0, math.Inf(1), searchFloorQPS
	var best *Result
	for hi/lo > searchResolution {
		if rate > searchGuardQPS {
			return 0, nil, fmt.Errorf("cluster: %g QPS still meets the %v budget", lo, budget)
		}
		res, err := f.Run(rate, n)
		if err != nil {
			return 0, nil, err
		}
		switch {
		case time.Duration(res.Latency.P95()*float64(time.Second)) <= budget && res.AchievedQPS >= 0.8*rate:
			lo, best = rate, res
		case lo == 0: // the floor failed: its probe is the row
			return rate, res, nil
		default:
			hi = rate
		}
		if rate = 2 * lo; !math.IsInf(hi, 1) {
			rate = math.Sqrt(lo * hi)
		}
	}
	return lo, best, nil
}

// classLedger is one SLO class's admission accounting for a Run.
type classLedger struct {
	offered, shed, delayed int
	delay                  float64 // summed admission delay, seconds
}

// class returns class c's ledger entry, growing the ledger (and, with
// metrics on, family fam's exported series) to cover c.
func (f *Fleet) class(c, fam int) *classLedger {
	for len(f.classes) <= c {
		f.classes = append(f.classes, classLedger{})
	}
	f.meter.coverClass(fam, c, &f.classes)
	return &f.classes[c]
}

// pushBound caps a member's queued jobs (the capacity of member.jobs): the
// front-end stalls once a member is this far behind, bounding in-flight
// deep-copy buffers (so recycling stays effective and fleet memory stays
// flat at any run length). Purely wall-clock backpressure — every job's
// admission time is fixed before the send, so virtual-time results are
// unchanged. A member holds at most pushBound+2 buffers (pushBound queued,
// one executing, one in the front-end's hands), and the bound is per
// member, so 64 hosts can still hold hundreds of queries between them:
// enough to keep every worker fed, little enough that a front-end faster
// than its hosts (the generator's sequence memo made it so on sticky
// fleets) does not turn its lead into live heap.
const pushBound = 8

// copyQuery deep-copies the generator's arena-backed query into a recycled
// member-owned buffer. The front-end overwrites the arena on its next draw,
// while the member goroutine consumes the copy asynchronously; the buffer
// returns to free once the job is executed.
func (m *member) copyQuery(q workload.Query) *workload.QueryBuf {
	ni, np, no := q.Size()
	m.hiIdx = max(m.hiIdx, ni)
	m.hiPools = max(m.hiPools, np)
	m.hiOps = max(m.hiOps, no)
	var b *workload.QueryBuf
	select {
	case b = <-m.free:
	default:
		b = new(workload.QueryBuf)
	}
	b.Reserve(m.hiIdx, m.hiPools, m.hiOps)
	b.CopyFrom(q)
	return b
}

// startWorkers begins a queued Run: one worker goroutine per member, at
// most Config.HostWorkers of them executing at once. The returned function
// sends each worker a stop job and waits for every worker to exit; Run
// calls it on all paths, after the final barrier.
func (f *Fleet) startWorkers(records []record) (stop func()) {
	workers := f.cfg.HostWorkers
	if workers <= 0 {
		workers = len(f.members)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, m := range f.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.loop(sem, records, &f.pending)
		}(m)
	}
	return func() {
		for _, m := range f.members {
			m.jobs <- job{idx: -1}
		}
		wg.Wait()
	}
}

// exec runs one routed job on the member's host and publishes its record at
// the query's index: the whole per-job body, shared by the worker loop and
// the inline front-end. q must stay valid until exec returns.
func (m *member) exec(idx int, at simclock.Time, q workload.Query, records []record) error {
	// Live metrics: mark every sampling boundary crossed before this job.
	// Admission times are non-decreasing per host, so the series depends
	// only on the deterministic job sequence.
	m.meter.tick(at)
	before := m.host.Snapshot()
	done, err := m.host.Admit(at, q)
	if err != nil {
		return err
	}
	records[idx] = record{
		arrive: at,
		done:   done,
		host:   m.id,
		user:   q.UserID,
		class:  q.Class,
		delta:  m.host.Snapshot().Sub(before),
		ok:     true,
	}
	return nil
}

// loop is a queued Run's host goroutine: receive a job, take a slot of the
// fleet-wide worker semaphore, execute while the channel still has jobs and
// give the slot back once it runs dry. After an error it keeps receiving and
// skips every later job, so the front-end never stalls on a failed member;
// their records stay zero, exactly as if they had arrived after it. A stop
// job ends the loop.
func (m *member) loop(sem chan struct{}, records []record, pending *sync.WaitGroup) {
	pprof.SetGoroutineLabels(m.execCtx)
	for {
		j := <-m.jobs
		sem <- struct{}{}
		for more := true; more && j.idx >= 0; {
			if m.err == nil {
				m.err = m.exec(j.idx, j.at, j.q.Q, records)
			}
			select {
			case m.free <- j.q: // always room: a member holds at most pushBound+2 buffers
			default:
			}
			pending.Done()
			select {
			case j = <-m.jobs:
			default:
				more = false
			}
		}
		<-sem
		if j.idx < 0 {
			return
		}
	}
}

// hostError wraps a host's execution error the same way on both paths.
func hostError(id int, err error) error {
	return fmt.Errorf("cluster: host %d: %w", id, err)
}

// syncAll waits for every sent job (none on an inline Run), which makes each
// host's state visible to the front-end, and returns the first member error
// in id order.
func (f *Fleet) syncAll() error {
	f.pending.Wait()
	for _, m := range f.members {
		if m.err != nil {
			return hostError(m.id, m.err)
		}
	}
	return nil
}

// HostSet builds n identical SDM-backed serving hosts over one set of
// materialized tables: each host gets its own store with a derived store
// seed (hosts never share mutable state the determinism contract cares
// about).
// SDM-backed sets open host 0 in full and the rest as replicas over its
// load images, copied on change (core.OpenReplica) — the stored
// bytes are identical across hosts, so only load timing is replayed per
// host, and a host copies the model's bytes only once a write changes
// them. A nil store config builds flat DRAM-baseline hosts.
func HostSet(inst *model.Instance, tables []*embedding.Table, n int, scfg *core.Config, hcfg serving.Config) ([]*serving.Host, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: host set of %d", n)
	}
	hosts := make([]*serving.Host, n)
	errs := make([]error, n)
	var donor *core.Store
	if scfg != nil {
		sc := *scfg
		sc.Seed = scfg.Seed // host 0's derived seed (i = 0)
		s, err := core.Open(inst, tables, sc, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: host set: %w", err)
		}
		donor = s
	}
	var wg sync.WaitGroup
	for i := range hosts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var store *core.Store
			if scfg != nil {
				if i == 0 {
					store = donor
				} else {
					sc := *scfg
					sc.Seed = scfg.Seed + uint64(i)*0x9e3779b9
					s, err := core.OpenReplica(donor, sc, nil)
					if err != nil {
						errs[i] = err
						return
					}
					store = s
				}
			}
			h, err := serving.NewHost(inst, store, tables, nil, nil, hcfg)
			if err != nil {
				errs[i] = err
				return
			}
			hosts[i] = h
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: host set: %w", err)
		}
	}
	return hosts, nil
}
