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
// front-end, one per host, and a window registry the run's fold marks at
// Result-window boundaries. Every instrument is func-backed: it reads the
// ledger that counts its events (the fleet's per-Run routing and class
// ledgers, the host, store and adapter counters, the window being
// marked), so the meter keeps no number of its own. nil *meter (metrics
// off) is the zero-overhead path — every method no-ops.
type meter struct {
	every simclock.Time
	fe    *metrics.Registry
	win   *metrics.Registry
	hosts []*metrics.Registry

	// feTicker marks the front-end registry on crossed boundaries from the
	// sequential routing loop.
	feTicker ticker
	// classSeries[fam] is how many class-labeled series of a per-class
	// family are registered; it only grows (see coverClass).
	classSeries [len(classFamilies)]int

	// cur is the window markWindow is publishing; the window gauges read
	// it at their mark.
	cur markedWindow

	// adapterDone guards against re-registering an adapter's instruments
	// when SetAdapters runs after SetMetrics (or repeatedly).
	adapterDone []bool
}

// markedWindow is one derived window as the window gauges read it: the
// Result's WindowStat plus the p50 it does not carry.
type markedWindow struct {
	WindowStat
	p50 float64
}

// windowGauges are the per-window series, in registration (and so
// rendering) order.
var windowGauges = [...]struct {
	desc metrics.Desc
	read func(w *markedWindow) float64
}{
	{metrics.Desc{Name: "sdm_fleet_window_queries", Help: "Completed queries arriving in the window."}, func(w *markedWindow) float64 { return float64(w.Queries) }},
	{metrics.Desc{Name: "sdm_fleet_window_mean_latency_seconds", Help: "Mean latency of the window's queries.", Unit: "seconds"}, func(w *markedWindow) float64 { return w.MeanLat }},
	{metrics.Desc{Name: "sdm_fleet_window_p50_latency_seconds", Help: "p50 latency of the window's queries.", Unit: "seconds"}, func(w *markedWindow) float64 { return w.p50 }},
	{metrics.Desc{Name: "sdm_fleet_window_p99_latency_seconds", Help: "p99 latency of the window's queries.", Unit: "seconds"}, func(w *markedWindow) float64 { return w.P99 }},
	{metrics.Desc{Name: "sdm_fleet_window_max_latency_seconds", Help: "Maximum latency of the window's queries.", Unit: "seconds"}, func(w *markedWindow) float64 { return w.MaxLat }},
	{metrics.Desc{Name: "sdm_fleet_window_hit_ratio", Help: "Row-cache hit rate over the window."}, func(w *markedWindow) float64 { return w.HitRate }},
	{metrics.Desc{Name: "sdm_fleet_window_fm_served_ratio", Help: "FM-served share of store lookups over the window."}, func(w *markedWindow) float64 { return w.FMRate }},
	{metrics.Desc{Name: "sdm_fleet_window_range_served_ratio", Help: "Share of lookups served by FM-resident row ranges over the window."}, func(w *markedWindow) float64 { return w.RangeRate }},
	{metrics.Desc{Name: "sdm_fleet_window_sm_reads_per_query", Help: "SM reads per query over the window."}, func(w *markedWindow) float64 { return w.SMPerQuery }},
	{metrics.Desc{Name: "sdm_fleet_window_sm_write_bytes", Help: "SM media bytes written in the window.", Unit: "bytes"}, func(w *markedWindow) float64 { return float64(w.SMWriteBytes) }},
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
// routing/admission counters over its per-Run ledgers, and the per-window
// gauges.
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
	mt.fe.NewCounterFunc(metrics.Desc{Name: "sdm_fleet_routes", Help: "Queries routed to a host this run."},
		func() uint64 {
			var n int
			for _, r := range f.routed {
				n += r
			}
			return uint64(n)
		})
	mt.fe.NewCounterFunc(metrics.Desc{Name: "sdm_fleet_diversions", Help: "Routes that moved a user off a previous host that is still alive."},
		func() uint64 { return uint64(f.diverted) })
	for _, g := range windowGauges {
		mt.win.NewGaugeFunc(g.desc, func(simclock.Time) float64 { return g.read(&mt.cur) })
	}
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

// reset clears the previous run's series at Run start. The front-end
// series read per-Run ledgers, which Run zeroes; the host series read
// cumulative counters.
func (mt *meter) reset(members []*member) {
	if mt == nil {
		return
	}
	mt.fe.ResetMarks()
	mt.win.ResetMarks()
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

// The per-class front-end series families: the fam argument of coverClass
// indexes classFamilies.
const (
	famOffered = iota
	famShed
	famDelayed
)

var classFamilies = [...]struct {
	name, help string
	count      func(l *classLedger) int
}{
	famOffered: {"sdm_fleet_class_offered", "Arrivals per SLO class.", func(l *classLedger) int { return l.offered }},
	famShed:    {"sdm_fleet_class_shed", "Arrivals admission rejected per SLO class.", func(l *classLedger) int { return l.shed }},
	famDelayed: {"sdm_fleet_class_delayed", "Arrivals a queue-mode bucket admitted late per SLO class.", func(l *classLedger) int { return l.delayed }},
}

// coverClass registers family fam's class-labeled series up to class c as
// func-backed counters over the fleet's per-Run ledger, so the count lives
// in one place. Classes appear in first-arrival order on the sequential
// front-end loop, so creation order is deterministic; the ledger is cut to
// zero length at Run start, which the reader reports as 0.
func (mt *meter) coverClass(fam, c int, ledger *[]classLedger) {
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
				return uint64(classFamilies[fam].count(&(*ledger)[i]))
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

// markWindow marks the window gauges at w's End, reading w.
func (mt *meter) markWindow(w WindowStat, p50 float64) {
	if mt == nil {
		return
	}
	mt.cur = markedWindow{w, p50}
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
