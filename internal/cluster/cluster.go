// Package cluster is a deterministic virtual-time fleet simulator: N
// serving.Host replicas behind a front-end router with pluggable user→host
// policies (round-robin, least-outstanding-queries, sticky consistent
// hashing). It is the serving-time realization of the paper's fleet-level
// story: Tables 8/9/11 size fleets by multiplying one host's QPS, and
// Fig. 4c shows sticky routing raises per-host temporal locality — here a
// single open-loop arrival process over one shared Zipf user population is
// split across live hosts, so routing policy directly moves per-host cache
// hit rates, tail latency and the achieved fleet QPS that power.Provision
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
//   - Queued: routed jobs are handed to one goroutine per host, bounded by
//     a HostWorkers semaphore, and the front-end runs ahead of the hosts.
//     Used when nothing reads host state mid-run (no Feedback() router, no
//     trace); the only barriers are the failure-drill index and run end.
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
	"strconv"
	"sync"
	"time"

	"sdm/internal/adapt"
	"sdm/internal/core"
	"sdm/internal/embedding"
	"sdm/internal/model"
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

	// routed counts the queries routed to each host this Run — the
	// front-end's own load ledger, exposed through View.Routed. Reused
	// (zeroed in place) across Runs, like records and the class ledgers
	// below: repeated Runs on one fleet allocate no per-run bookkeeping.
	routed []int

	// records is the per-query outcome buffer, grown once and reused by
	// every Run (aggregate consumes it before Run returns).
	records []record

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

	// Per-Run per-class accounting: offered/shed/delayed counts and the
	// summed admission delay, indexed by SLO class.
	classOffered []int
	classShed    []int
	classDelayed []int
	classDelay   []float64

	// armed failure for the next Run (ScheduleFailure); -1 when disarmed.
	failHost int
	failFrac float64

	// armed drift drill for the next Run (ScheduleDrift).
	driftArmed bool
	driftFrac  float64
	driftAt    simclock.Time
}

// member serializes one host's execution. exec runs one routed job; an
// inline Run calls it on the front-end goroutine and leaves the queue
// fields (mu through hiOps) idle. A queued Run appends jobs under mu, a
// per-Run goroutine (loop) drains them FIFO through exec, and the
// submitted/completed counts let the front-end sync at the failure-drill
// index and at run end.
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

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      []job
	submitted int
	completed int
	closed    bool
	err       error

	// free recycles the deep-copy buffers that carry arena-backed
	// generator queries to this member's goroutine: the front-end pops a
	// buffer per routed query (copyQuery), the goroutine returns it after
	// execution. Guarded by mu. hiIdx/hiPools/hiOps are the member's
	// high-water query sizes (front-end only): every buffer is Reserved
	// to the high-water mark, so a recycled buffer reallocates at most
	// once per new maximum instead of creeping toward the workload's
	// long-tail sizes buffer by buffer.
	free    []*workload.QueryBuf
	hiIdx   int
	hiPools int
	hiOps   int
}

type job struct {
	idx int
	at  simclock.Time
	// q owns the query's deep-copied storage for the duration of the job;
	// the member goroutine recycles it into the free list afterwards.
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
	if wr, ok := router.(*WeightedRouter); ok {
		if err := wr.checkHosts(len(hosts)); err != nil {
			return nil, err
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
		m := &member{id: i, host: h, alive: true}
		m.execCtx = pprof.WithLabels(context.Background(),
			pprof.Labels("sdm_phase", "exec", "sdm_host", strconv.Itoa(i)))
		m.cond = sync.NewCond(&m.mu)
		f.members = append(f.members, m)
	}
	return f, nil
}

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
// of that run's queries have been routed (frac <= 0 selects 0.5), the
// router drops it, its users remap, and the survivors' cold caches
// produce the §A.4 warmup spike. Arm it after any warmup Runs so the
// spike is measured on steady-state caches. A host can only fail once per
// fleet lifetime.
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
	if math.IsNaN(frac) || math.IsInf(frac, 0) {
		return fmt.Errorf("cluster: failure frac must be finite, got %g", frac)
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

func (v fleetView) LastHost(user int64) int {
	if id, ok := v.f.lastHost[user]; ok {
		return id
	}
	return -1
}

func (v fleetView) Routed(id int) int {
	if id < 0 || id >= len(v.f.routed) {
		return 0
	}
	return v.f.routed[id]
}

func (v fleetView) Snapshot(id int) serving.CacheSnapshot {
	// Feedback-only, like OutstandingAt: the host is idle on inline runs.
	return v.f.members[id].host.Snapshot()
}

func (v fleetView) FMServedRate(id int) float64 {
	// Feedback-only, like Snapshot.
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
	// A failed Run leaves its host error (and whatever it had queued)
	// behind; every Run starts from a clean queue.
	for _, m := range f.members {
		m.mu.Lock()
		m.jobs = m.jobs[:0]
		m.submitted, m.completed = 0, 0
		m.closed, m.err = false, nil
		m.mu.Unlock()
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
	f.classOffered, f.classShed = f.classOffered[:0], f.classShed[:0]
	f.classDelayed, f.classDelay = f.classDelayed[:0], f.classDelay[:0]
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
		t += simclock.Time(f.rng.Exp(1 / qps * float64(time.Second)))
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
		f.noteOffered(q.Class)
		at := t
		if f.admission != nil {
			admitAt, tokens, ok := f.admission.admit(q.Class, t)
			if f.trace != nil {
				f.traceAdmit(t, q.Class, tokens, admitAt, ok)
			}
			if !ok {
				f.noteShed(q.Class)
				records[i] = record{user: q.UserID, class: q.Class}
				continue
			}
			if admitAt > t {
				f.noteDelayed(q.Class, (admitAt - t).Seconds())
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
		last, seen := f.lastHost[q.UserID]
		if seen && f.failed >= 0 && last == f.failed && id != f.failed {
			f.rerouted[q.UserID] = struct{}{}
		}
		f.meter.noteRoute(seen, last, id)
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
			m.push(job{idx: i, at: at, q: m.copyQuery(q)})
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

// MaxQPSAtLatency binary-searches the highest offered QPS whose measured
// latency quantile stays within budget, one Run of probeQueries per probe
// (state carries over, so warm the fleet first). It returns that rate and
// its probe's Result; the loQPS floor probe's when no probe meets the
// budget.
func (f *Fleet) MaxQPSAtLatency(quantile float64, budget time.Duration, loQPS, hiQPS float64, probeQueries int) (float64, *Result, error) {
	best, err := f.Run(loQPS, probeQueries)
	if err != nil {
		return 0, nil, err
	}
	bestQPS := loQPS
	for iter := 0; iter < 12 && hiQPS/loQPS > 1.05; iter++ {
		mid := (loQPS + hiQPS) / 2
		res, err := f.Run(mid, probeQueries)
		if err != nil {
			return 0, nil, err
		}
		// A rate passes if it meets the latency budget AND actually
		// sustains the offered rate — an overloaded backend shows up as a
		// completion horizon stretching past the arrival window before
		// short-probe percentiles can detect it.
		ok := time.Duration(res.Latency.Quantile(quantile)*float64(time.Second)) <= budget &&
			res.AchievedQPS >= 0.8*mid
		if ok {
			bestQPS, best = mid, res
			loQPS = mid
		} else {
			hiQPS = mid
		}
	}
	return bestQPS, best, nil
}

// countClass adds one to class c of a per-class ledger, growing it (and,
// with metrics on, family fam's exported series) to cover c.
func (f *Fleet) countClass(ledger *[]int, fam, c int) {
	for len(*ledger) <= c {
		*ledger = append(*ledger, 0)
	}
	f.meter.coverClass(fam, c, ledger)
	(*ledger)[c]++
}

func (f *Fleet) noteOffered(c int) {
	if c >= 0 {
		f.countClass(&f.classOffered, famOffered, c)
	}
}

func (f *Fleet) noteShed(c int) {
	if c >= 0 {
		f.countClass(&f.classShed, famShed, c)
	}
}

func (f *Fleet) noteDelayed(c int, seconds float64) {
	if c < 0 {
		return
	}
	f.countClass(&f.classDelayed, famDelayed, c)
	for len(f.classDelay) <= c {
		f.classDelay = append(f.classDelay, 0)
	}
	f.classDelay[c] += seconds
}

// pushBound caps a member's queued jobs: the front-end stalls once a
// member is this far behind, bounding in-flight deep-copy buffers (so
// free-list reuse stays effective and fleet memory stays flat at any run
// length). Purely wall-clock backpressure — every job's admission time is
// fixed before the push, so virtual-time results are unchanged. A member
// holds at most 2 × pushBound buffers (one batch queued, one executing),
// and the bound is per member, so 64 hosts can still hold a thousand
// queries between them: enough to keep every worker fed, little enough
// that a front-end faster than its hosts (the generator's sequence memo
// made it so on sticky fleets) does not turn its lead into live heap.
const pushBound = 8

// push appends a routed job to the member's FIFO queue, waiting while the
// queue is at pushBound.
func (m *member) push(j job) {
	m.mu.Lock()
	for len(m.jobs) >= pushBound && !m.closed && m.err == nil {
		m.cond.Wait()
	}
	m.jobs = append(m.jobs, j)
	m.submitted++
	m.cond.Broadcast()
	m.mu.Unlock()
}

// copyQuery deep-copies the generator's arena-backed query into a recycled
// member-owned buffer. The front-end overwrites the arena on its next draw,
// while the member goroutine consumes the copy asynchronously; the buffer
// returns to the free list once the job is executed.
func (m *member) copyQuery(q workload.Query) *workload.QueryBuf {
	ni, np, no := q.Size()
	if ni > m.hiIdx {
		m.hiIdx = ni
	}
	if np > m.hiPools {
		m.hiPools = np
	}
	if no > m.hiOps {
		m.hiOps = no
	}
	m.mu.Lock()
	var b *workload.QueryBuf
	if n := len(m.free); n > 0 {
		b = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	}
	m.mu.Unlock()
	if b == nil {
		b = new(workload.QueryBuf)
	}
	b.Reserve(m.hiIdx, m.hiPools, m.hiOps)
	b.CopyFrom(q)
	return b
}

// startWorkers begins a queued Run: one worker goroutine per member, at
// most Config.HostWorkers of them executing at once. The returned function
// closes the queues and waits for every worker to exit; Run calls it on all
// paths.
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
			m.loop(sem, records)
		}(m)
	}
	return func() {
		for _, m := range f.members {
			m.mu.Lock()
			m.closed = true
			m.cond.Broadcast()
			m.mu.Unlock()
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

// loop is a queued Run's host goroutine: drain queued jobs FIFO in batches,
// execute them under the fleet-wide worker semaphore. Batch-draining keeps
// mutex traffic at one lock/unlock pair per burst instead of per query;
// execution order and virtual-time results are identical either way.
func (m *member) loop(sem chan struct{}, records []record) {
	pprof.SetGoroutineLabels(m.execCtx)
	var run []job
	for {
		m.mu.Lock()
		for len(m.jobs) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.jobs) == 0 {
			m.mu.Unlock()
			return
		}
		run = append(run[:0], m.jobs...)
		m.jobs = m.jobs[:0]
		failed := m.err != nil
		// Wake a front-end stalled on pushBound: the queue just emptied.
		m.cond.Broadcast()
		m.mu.Unlock()

		var firstErr error
		if !failed {
			sem <- struct{}{}
			for k := range run {
				j := &run[k]
				// After an error later jobs are skipped; their records stay
				// zero, exactly as if they had arrived after it.
				if firstErr = m.exec(j.idx, j.at, j.q.Q, records); firstErr != nil {
					break
				}
			}
			<-sem
		}

		m.mu.Lock()
		m.completed += len(run)
		if firstErr != nil && m.err == nil {
			m.err = firstErr
		}
		for k := range run {
			m.free = append(m.free, run[k].q)
			run[k].q = nil
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// hostError wraps a host's execution error the same way on both paths.
func hostError(id int, err error) error {
	return fmt.Errorf("cluster: host %d: %w", id, err)
}

// syncAll blocks until every member has executed all submitted jobs; the
// mutex handoff makes each host's state visible to the front-end. On an
// inline Run nothing is ever submitted and it returns at once.
func (f *Fleet) syncAll() error {
	for _, m := range f.members {
		m.mu.Lock()
		for m.completed < m.submitted {
			m.cond.Wait()
		}
		err := m.err
		m.mu.Unlock()
		if err != nil {
			return hostError(m.id, err)
		}
	}
	return nil
}

// HostSet builds n identical SDM-backed serving hosts over one set of
// materialized tables: each host gets its own store with a derived store
// seed (hosts never share mutable state the determinism contract cares
// about).
// SDM-backed sets open host 0 in full and the rest as replicas sharing its
// post-load media images copy-on-write (core.OpenReplica) — the stored
// bytes are identical across hosts, so only load timing is replayed per
// host, cutting fleet construction from O(n·model) to O(model)
// allocations. A nil store config builds flat DRAM-baseline hosts.
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
