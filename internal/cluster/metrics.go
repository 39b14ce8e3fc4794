package cluster

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"sdm/internal/metrics"
	"sdm/internal/simclock"
)

// MetricsConfig tunes the fleet metrics plane (SetMetrics).
type MetricsConfig struct {
	// Every is the live sampling width in virtual time: host- and
	// front-end instruments are marked at every crossed multiple of it
	// (absolute virtual-time boundaries, like coordinator windows, so the
	// series is a pure function of the deterministic admission sequence).
	// <= 0 selects 250ms.
	Every time.Duration
}

// meter is the fleet's metrics state: one live registry for the
// front-end, one per host, and a window registry the post-run replay
// plane marks at Result-window boundaries. nil *meter (metrics off) is
// the zero-overhead path — every method no-ops.
type meter struct {
	every simclock.Time
	fe    *metrics.Registry
	win   *metrics.Registry
	hosts []*metrics.Registry

	// Front-end live instruments, updated sequentially in the routing
	// loop and marked on crossed boundaries.
	routes   *metrics.Counter
	diverted *metrics.Counter
	feTicker ticker
	// classSeries[fam] is how many class-labeled series of a per-class
	// family are registered; it only grows (see coverClass).
	classSeries [len(classFamilies)]int

	// Per-window instruments (replay plane): gauges the window
	// derivation marks at each window's End, so Result.Windows and the
	// exported series come from the same single-pass accumulation.
	winQueries *metrics.Gauge
	winMean    *metrics.Gauge
	winP50     *metrics.Gauge
	winP99     *metrics.Gauge
	winMax     *metrics.Gauge
	winHit     *metrics.Gauge
	winFM      *metrics.Gauge
	winRange   *metrics.Gauge
	winSMPerQ  *metrics.Gauge
	winSMWrite *metrics.Gauge

	// adapterDone guards against re-registering an adapter's instruments
	// when SetAdapters runs after SetMetrics (or repeatedly).
	adapterDone []bool
}

// ticker is the live sampling state of one registry — the front-end's,
// marked from the sequential routing loop, or a host's, marked from
// member.exec. Either way times arrive non-decreasing (arrival
// order; the lastPush clamp), so marking every crossed boundary before the
// work at t yields the same series at any worker count.
type ticker struct {
	reg   *metrics.Registry
	every simclock.Time
	next  simclock.Time
}

// tick marks every Every-boundary crossed up to virtual time t.
func (tk *ticker) tick(t simclock.Time) {
	if tk == nil || t < tk.next {
		return
	}
	if tk.next == 0 {
		// First job: start the series at the boundary at or below t.
		tk.next = t / tk.every * tk.every
	}
	for tk.next <= t {
		tk.reg.MarkAll(tk.next)
		tk.next += tk.every
	}
}

// SetMetrics attaches the metrics plane: every host's serving and store
// catalog (plus its adapter's, once adapters are set), the front-end's
// routing/admission counters, and the per-window replay instruments.
// Metered runs execute exactly the same virtual-time work as unmetered
// ones; WriteMetrics renders the most recent Run's series.
func (f *Fleet) SetMetrics(cfg MetricsConfig) error {
	if cfg.Every < 0 {
		return fmt.Errorf("cluster: negative metrics sampling width %v", cfg.Every)
	}
	if cfg.Every == 0 {
		cfg.Every = 250 * time.Millisecond
	}
	mt := &meter{
		every:       simclock.Time(cfg.Every),
		fe:          metrics.NewRegistry(-1),
		win:         metrics.NewRegistry(-1),
		adapterDone: make([]bool, len(f.members)),
	}
	mt.feTicker = ticker{reg: mt.fe, every: mt.every}
	mt.routes = mt.fe.NewCounter(metrics.Desc{Name: "sdm_fleet_routes", Help: "Queries routed to a host this run."})
	mt.diverted = mt.fe.NewCounter(metrics.Desc{Name: "sdm_fleet_diversions", Help: "Routes that moved a user off their previous host."})
	mt.winQueries = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_queries", Help: "Completed queries arriving in the window."})
	mt.winMean = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_mean_latency_seconds", Help: "Mean latency of the window's queries.", Unit: "seconds"})
	mt.winP50 = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_p50_latency_seconds", Help: "p50 latency of the window's queries.", Unit: "seconds"})
	mt.winP99 = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_p99_latency_seconds", Help: "p99 latency of the window's queries.", Unit: "seconds"})
	mt.winMax = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_max_latency_seconds", Help: "Maximum latency of the window's queries.", Unit: "seconds"})
	mt.winHit = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_hit_ratio", Help: "Row-cache hit rate over the window."})
	mt.winFM = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_fm_served_ratio", Help: "FM-served share of store lookups over the window."})
	mt.winRange = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_range_served_ratio", Help: "Share of lookups served by FM-resident row ranges over the window."})
	mt.winSMPerQ = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_sm_reads_per_query", Help: "SM reads per query over the window."})
	mt.winSMWrite = mt.win.NewGauge(metrics.Desc{Name: "sdm_fleet_window_sm_write_bytes", Help: "SM media bytes written in the window.", Unit: "bytes"})
	for i, m := range f.members {
		reg := metrics.NewRegistry(i)
		m.host.RegisterMetrics(reg)
		mt.hosts = append(mt.hosts, reg)
		m.meter = &ticker{reg: reg, every: mt.every}
	}
	f.meter = mt
	f.installMeters()
	return nil
}

// installMeters registers adapter instruments on their hosts' registries.
// Mirrors installTracers: called from both SetMetrics and SetAdapters so
// the wiring is order-independent.
func (f *Fleet) installMeters() {
	if f.meter == nil {
		return
	}
	for i, a := range f.adapters {
		if a == nil || i >= len(f.meter.hosts) || f.meter.adapterDone[i] {
			continue
		}
		a.RegisterMetrics(f.meter.hosts[i])
		f.meter.adapterDone[i] = true
	}
}

// registries returns every registry in render order: front-end live,
// front-end windows, hosts 0..n-1.
func (mt *meter) registries() []*metrics.Registry {
	regs := make([]*metrics.Registry, 0, 2+len(mt.hosts))
	regs = append(regs, mt.fe, mt.win)
	return append(regs, mt.hosts...)
}

// reset clears the previous run's series at Run start: front-end
// counters restart from zero (they are per-run accounting, like
// Result), host registries keep their cumulative values but drop marks.
func (mt *meter) reset(members []*member) {
	if mt == nil {
		return
	}
	mt.fe.Reset()
	mt.win.Reset()
	mt.feTicker.next = 0
	for i, reg := range mt.hosts {
		reg.ResetMarks()
		if mm := members[i].meter; mm != nil {
			mm.next = 0
		}
	}
}

// feTick marks the front-end live registry at every crossed boundary.
func (mt *meter) feTick(t simclock.Time) {
	if mt != nil {
		mt.feTicker.tick(t)
	}
}

// noteRoute counts a routing decision (and whether it diverted the user
// off their previous host).
func (mt *meter) noteRoute(seen bool, prev, chosen int) {
	if mt == nil {
		return
	}
	mt.routes.Inc()
	if seen && prev != chosen {
		mt.diverted.Inc()
	}
}

// The per-class front-end series families: the fam argument of coverClass
// indexes classFamilies.
const (
	famOffered = iota
	famShed
	famDelayed
)

var classFamilies = [...]struct{ name, help string }{
	famOffered: {"sdm_fleet_class_offered", "Arrivals per SLO class."},
	famShed:    {"sdm_fleet_class_shed", "Arrivals admission rejected per SLO class."},
	famDelayed: {"sdm_fleet_class_delayed", "Arrivals a queue-mode bucket admitted late per SLO class."},
}

// coverClass registers family fam's class-labeled series up to class c as
// func-backed counters over the fleet's per-Run ledger, so the count lives
// in one place. Classes appear in first-arrival order on the sequential
// front-end loop, so creation order is deterministic; the ledger is cut to
// zero length at Run start, which the reader reports as 0.
func (mt *meter) coverClass(fam, c int, ledger *[]int) {
	if mt == nil {
		return
	}
	for ; mt.classSeries[fam] <= c; mt.classSeries[fam]++ {
		i := mt.classSeries[fam]
		mt.fe.NewCounterFunc(metrics.Desc{
			Name: classFamilies[fam].name, Help: classFamilies[fam].help,
			Labels: []metrics.Label{{Key: "class", Value: strconv.Itoa(i)}},
		}, func() uint64 {
			if i < len(*ledger) {
				return uint64((*ledger)[i])
			}
			return 0
		})
	}
}

// finalLive closes every live series with one mark at the run's end, so
// the exported stream always carries the final counter values.
func (mt *meter) finalLive(end simclock.Time) {
	if mt == nil {
		return
	}
	mt.fe.MarkAll(end)
	for _, reg := range mt.hosts {
		reg.MarkAll(end)
	}
}

// markWindow publishes one derived window onto the replay-plane gauges.
func (mt *meter) markWindow(w WindowStat, p50 float64) {
	if mt == nil {
		return
	}
	mt.winQueries.Set(float64(w.Queries))
	mt.winMean.Set(w.MeanLat)
	mt.winP50.Set(p50)
	mt.winP99.Set(w.P99)
	mt.winMax.Set(w.MaxLat)
	mt.winHit.Set(w.HitRate)
	mt.winFM.Set(w.FMRate)
	mt.winRange.Set(w.RangeRate)
	mt.winSMPerQ.Set(w.SMPerQuery)
	mt.winSMWrite.Set(float64(w.SMWriteBytes))
	mt.win.MarkAll(w.End)
}

// WriteMetrics renders the most recent Run's sampled series as
// OpenMetrics text. The bytes are identical at any HostWorkers setting.
func (f *Fleet) WriteMetrics(w io.Writer) error {
	if f.meter == nil {
		return errors.New("cluster: metrics not enabled (SetMetrics)")
	}
	return metrics.WriteOpenMetrics(w, f.meter.registries())
}

// WriteMetricsJSONL renders the identical sample stream as JSON lines.
func (f *Fleet) WriteMetricsJSONL(w io.Writer) error {
	if f.meter == nil {
		return errors.New("cluster: metrics not enabled (SetMetrics)")
	}
	return metrics.WriteJSONL(w, f.meter.registries())
}
