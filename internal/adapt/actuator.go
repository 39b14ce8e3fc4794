// The actuator owns the Begin/Step/Commit/Abort migration machinery — a
// FIFO of planned moves, one in-flight migration paced on the virtual
// timeline under a bandwidth cap, and (when a window schedule is installed)
// coordinator-granted migration windows with a per-window SM demote-write
// budget. It executes whatever plan the policy layer hands it and knows
// nothing about telemetry or placement scoring.

package adapt

import (
	"time"

	"sdm/internal/core"
	"sdm/internal/simclock"
)

// move is one planned placement move: the row window [Lo, Hi) of a table.
// A Whole move is the [0, rows) window plus a flip of the table's target,
// as core's whole-table migration is. The policy layer emits moves; the
// actuator executes them.
type move struct {
	Table   int
	Promote bool
	Whole   bool
	Lo, Hi  int64
}

// overlaps reports whether m and o share a row of one table.
func (m move) overlaps(o move) bool { return m.Table == o.Table && m.Lo < o.Hi && o.Lo < m.Hi }

// covers reports whether m's window holds the row window [lo, hi) of table.
func (m move) covers(table int, lo, hi int64) bool {
	return m.Table == table && m.Lo <= lo && hi <= m.Hi
}

// Window is one granted migration window [Open, Close): migration chunks
// may issue only inside it, at the window's bandwidth, and demote chunks
// stop once the window's SM write budget is spent. A fleet coordinator
// staggers windows across replicas; an ungoverned wear-aware Adapter
// slices its own timeline into contiguous windows so the demote budget
// still applies per evaluation interval.
type Window struct {
	Open, Close simclock.Time
	// BandwidthBytesPerSec caps migration issue rate inside the window;
	// <= 0 falls back to the actuator's own cap.
	BandwidthBytesPerSec float64
	// DemoteBudgetBytes is the SM demote-write allowance of this window;
	// <= 0 means unbudgeted. Enforcement is chunk-granular: the window
	// can overshoot by at most one chunk.
	DemoteBudgetBytes int64
}

// WindowFn returns, for a virtual time t, the migration window containing
// t (Open <= t < Close) or, when t falls between windows, the next one
// (Open > t). Implementations must be pure functions of t — the fleet
// determinism contract depends on it — and must return Close > Open.
type WindowFn func(t simclock.Time) Window

// migration is the slice of core.Migration the pacing loop drives,
// narrowed to an interface so regression tests can substitute
// failure-injecting fakes.
type migration interface {
	Step(now simclock.Time) (int, simclock.Time, error)
	Finished() bool
	Done() simclock.Time
	Commit() error
	Abort()
	BytesMoved() int64
}

// activeMig paces one in-flight migration.
type activeMig struct {
	job       move
	m         migration
	nextIssue simclock.Time
}

// actuator drives planned moves through the store's migration engine —
// the execution half of an Adapter.
type actuator struct {
	store      *core.Store
	chunkBytes int
	// bandwidth is the default pacing cap (bytes/s; 0 = unpaced), used
	// when no window schedule is installed or a window carries none.
	bandwidth float64
	stats     *Stats

	windows WindowFn
	// winOpen/winDemoted track the demote bytes issued in the window
	// currently being filled.
	winOpen    simclock.Time
	winDemoted int64

	queue  []move
	active *activeMig
}

// newActuator builds an actuator over a store opened with
// core.Config.ReserveSM, counting into its Adapter's stats.
func newActuator(store *core.Store, chunkBytes int, bandwidthBytesPerSec float64, stats *Stats) *actuator {
	return &actuator{
		store:      store,
		chunkBytes: chunkBytes,
		bandwidth:  bandwidthBytesPerSec,
		stats:      stats,
	}
}

// setWindows installs (or, with nil, removes) a migration window
// schedule. With a schedule installed, chunks issue only inside granted
// windows and each window's demote budget is enforced.
func (x *actuator) setWindows(fn WindowFn) { x.windows = fn }

// pending returns queued plus in-flight move count.
func (x *actuator) pending() int {
	n := len(x.queue)
	if x.active != nil {
		n++
	}
	return n
}

// appendPending appends the queued and in-flight moves to dst and returns
// it — the busy set the policy layer plans around.
func (x *actuator) appendPending(dst []move) []move {
	if x.active != nil {
		dst = append(dst, x.active.job)
	}
	return append(dst, x.queue...)
}

// enqueue appends planned moves to the FIFO.
func (x *actuator) enqueue(moves []move) {
	x.queue = append(x.queue, moves...)
}

// reconcile keeps only the queued moves the freshest plan still agrees
// with. Without it a promotion queued under an older desired set could
// begin (and commit) after drift moved the spotlight, stacking the
// committed FM placement past the budget until a later eval demoted the
// excess; the in-flight migration is left to finish — aborting it would
// waste its issued IO — so any overshoot is bounded by one move.
func (x *actuator) reconcile(keep func(move) bool) {
	kept := x.queue[:0]
	for _, j := range x.queue {
		if keep(j) {
			kept = append(kept, j)
		}
	}
	x.queue = kept
}

// windowAt returns the window covering (or next following) t, and whether
// a schedule is installed.
func (x *actuator) windowAt(t simclock.Time) (Window, bool) {
	if x.windows == nil {
		return Window{}, false
	}
	return x.windows(t), true
}

// spentInWindow returns the demote bytes already issued in w (0 when the
// actuator last filled a different window).
func (x *actuator) spentInWindow(w Window) int64 {
	if x.winOpen == w.Open {
		return x.winDemoted
	}
	return 0
}

// advance issues paced migration chunks up to virtual time now and
// commits finished migrations whose IO has completed. A migration whose
// Step fails — or stalls issuing zero bytes without finishing, which would
// otherwise spin the unpaced loop forever — is aborted and rolled back,
// so a half-moved window can never be committed by a later pass. With a
// window schedule installed, chunks additionally wait for the replica's
// granted windows and demote chunks stop when a window's SM write budget
// is spent.
func (x *actuator) advance(now simclock.Time) {
	for {
		if x.active == nil {
			if len(x.queue) == 0 {
				return
			}
			job := x.queue[0]
			x.queue = x.queue[1:]
			m, err := x.begin(job)
			if err != nil {
				// The table or range moved (or was never swappable) since
				// the evaluation that planned the move: drop it.
				continue
			}
			x.active = &activeMig{job: job, m: m, nextIssue: now}
		}
		act := x.active
		for !act.m.Finished() && act.nextIssue <= now {
			issue := act.nextIssue
			var win Window
			gated := x.windows != nil
			if gated {
				win = x.windows(issue)
				if issue < win.Open {
					// Between windows: the next chunk waits for the
					// replica's next grant.
					act.nextIssue = win.Open
					continue
				}
				if x.winOpen != win.Open {
					x.winOpen, x.winDemoted = win.Open, 0
				}
				if !act.job.Promote && win.DemoteBudgetBytes > 0 && x.winDemoted >= win.DemoteBudgetBytes {
					// This window's SM write budget is spent: demote
					// chunks resume in the next window.
					act.nextIssue = win.Close
					continue
				}
			}
			n, _, err := act.m.Step(issue)
			if gated && !act.job.Promote {
				// A failed Step still reports the bytes its earlier devices
				// wrote: they wore the media, so they spend the budget too.
				x.winDemoted += int64(n)
			}
			if err != nil || (n == 0 && !act.m.Finished()) {
				act.m.Abort()
				x.stats.Aborts++
				x.active = nil
				break
			}
			bw := x.bandwidth
			if gated && win.BandwidthBytesPerSec > 0 {
				bw = win.BandwidthBytesPerSec
			}
			if bw > 0 {
				act.nextIssue = issue + simclock.Time(float64(n)/bw*float64(time.Second))
			}
		}
		if x.active == nil {
			continue
		}
		if !act.m.Finished() || act.m.Done() > now {
			return // needs a later now to issue or settle
		}
		if err := act.m.Commit(); err == nil {
			if act.job.Promote {
				x.stats.Promotions++
			} else {
				x.stats.Demotions++
			}
			if !act.job.Whole {
				x.stats.RangeMoves++
			}
			x.stats.MigratedBytes += act.m.BytesMoved()
		} else {
			// A failed commit must release the table's in-flight slot, or
			// the table is wedged out of adaptation forever.
			act.m.Abort()
			x.stats.Aborts++
		}
		x.active = nil
	}
}

// begin validates a planned move against the store's current state.
func (x *actuator) begin(job move) (migration, error) {
	var (
		m   *core.Migration
		err error
	)
	switch {
	case job.Whole && job.Promote:
		m, err = x.store.BeginPromote(job.Table, x.chunkBytes)
	case job.Whole:
		m, err = x.store.BeginDemote(job.Table, x.chunkBytes)
	case job.Promote:
		m, err = x.store.BeginPromoteRange(job.Table, job.Lo, job.Hi, x.chunkBytes)
	default:
		m, err = x.store.BeginDemoteRange(job.Table, job.Lo, job.Hi, x.chunkBytes)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}
