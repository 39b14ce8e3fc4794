package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sdm/internal/obs"
	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// View is the per-host fleet state a router's scorers may consult when
// picking a target. Liveness lives here — the fleet owns it, routers
// only read it. Signals split into two classes:
//
//   - Front-end state (Hosts, Alive, Routed, InMigrationWindow):
//     maintained by the routing loop itself or pure functions of virtual
//     time, always safe to read.
//   - Host state (OutstandingAt, FMServedRate, WearHeadroom,
//     MigrationBacklog): owned by the hosts, valid only from scorers
//     marked feedback — the fleet then executes every routed query on
//     the routing goroutine before the next decision, so each read sees
//     the state after all routed queries, race-free and deterministic.
type View interface {
	// Hosts returns the fleet size (host ids are 0..Hosts()-1).
	Hosts() int
	// Alive reports whether host id is serving.
	Alive(id int) bool
	// OutstandingAt returns host id's in-flight query count at virtual
	// time t.
	OutstandingAt(id int, t simclock.Time) int
	// Routed returns how many queries this Run has routed to host id —
	// the front-end's own load ledger.
	Routed(id int) int
	// FMServedRate returns the fraction of host id's store lookups served
	// from fast memory so far (0 for flat hosts).
	FMServedRate(id int) float64
	// WearHeadroom returns the host's remaining rated SM endurance as a
	// fraction in [0, 1] (1 for flat hosts and fresh devices).
	WearHeadroom(id int) float64
	// InMigrationWindow reports whether host id may issue migration IO at
	// t: inside its coordinator-granted window, or always when no
	// coordinator gates migration. Pure function of (id, t).
	InMigrationWindow(id int, t simclock.Time) bool
	// MigrationBacklog returns the host's queued plus in-flight migration
	// move count (0 without adapters).
	MigrationBacklog(id int) int
}

// Router is the fleet's routing policy. *WeightedRouter is the only one:
// round-robin, least-outstanding, sticky and every weighted mix are scorer
// compositions, so the fleet validates each against its size and the
// decision tracer explains every decision.
type Router = *WeightedRouter

// ScorerWeight is one entry of a scorer composition: a scorer from the
// table (ScorerNames) and its weight in a WeightedRouter's sum. Its fields
// are unexported: ParseScorers is the way to make one, so every
// composition is a "name=weight,..." spec.
type ScorerWeight struct {
	scorer *scorer
	weight float64
	ring   *ring // the affinity scorer's consistent-hash ring; nil for the others
}

// WeightedRouter picks the alive host maximizing the weighted sum of its
// scorers. It is deterministic — the same sequence of Route calls over the
// same Views yields the same decisions, which makes fleet runs replayable —
// and holds no liveness state: the fleet owns it and View.Alive reports it.
//
// Tie-breaking is strictly deterministic by rotating scan order: hosts are
// scanned starting after the previous winner ((next+i) % n), a candidate
// replaces the incumbent only on a strictly greater score, and the scan
// start advances past each winner. Equal-scoring hosts therefore share
// load round-robin instead of funnelling to host 0 — and with zero
// scorers the rotation alone IS round-robin.
type WeightedRouter struct {
	name     string
	scorers  []ScorerWeight
	feedback bool
	next     int

	// d is the decision in progress and scratch the per-host scores for
	// RouteExplained, reused across calls so a decision allocates nothing.
	d       decision
	scratch []float64
}

// decision is one routing decision's inputs plus what its host scores
// share, computed once before the scan by the scorers' prepare.
type decision struct {
	v           View
	now         simclock.Time
	owner       int // q.UserID's first alive host on the affinity ring
	least, most int // fewest and most queries routed to an alive host (loadbal)
}

// NewWeightedRouter composes ParseScorers' entries into a router, summing
// them in the order given. A zero ScorerWeight (no scorer) is rejected. No
// scorers at all is valid and yields pure rotating (round-robin)
// selection. An empty name selects "weighted".
func NewWeightedRouter(name string, scorers ...ScorerWeight) (*WeightedRouter, error) {
	if name == "" {
		name = "weighted"
	}
	r := &WeightedRouter{name: name, scorers: scorers}
	for _, sw := range scorers {
		if sw.scorer == nil {
			return nil, fmt.Errorf("cluster: weighted router %q has a nil scorer", name)
		}
		if sw.scorer.feedback {
			r.feedback = true
		}
	}
	return r, nil
}

// Name identifies the policy in results.
func (r *WeightedRouter) Name() string { return r.name }

// Feedback reports whether any scorer reads live host state through the
// View; the fleet then finishes every routed query before the next
// decision (Fleet.Run executes inline instead of queueing).
func (r *WeightedRouter) Feedback() bool { return r.feedback }

// Route picks an alive host for q arriving at now — the argmax of the
// weighted score, ties broken by rotating scan order (see type comment) —
// or -1 when no host is alive.
func (r *WeightedRouter) Route(q workload.Query, now simclock.Time, v View) int {
	best, _ := r.route(q, now, v, nil)
	return best
}

// route is the shared decision loop: argmax with the rotating tie-break.
// A non-nil scores slice (len >= Hosts) additionally records every alive
// host's score (dead hosts keep NaN) — the explained path; the nil path
// is allocation-free.
func (r *WeightedRouter) route(q workload.Query, now simclock.Time, v View, scores []float64) (int, float64) {
	r.d = decision{v: v, now: now}
	for _, sw := range r.scorers {
		if sw.scorer.prepare != nil {
			sw.scorer.prepare(&r.d, sw.ring, q)
		}
	}
	n := v.Hosts()
	best := -1
	var bestScore float64
	for i := 0; i < n; i++ {
		id := (r.next + i) % n
		if !v.Alive(id) {
			continue
		}
		var s float64
		for _, sw := range r.scorers {
			s += sw.weight * sw.scorer.score(&r.d, id)
		}
		if scores != nil {
			scores[id] = s
		}
		if best < 0 || s > bestScore {
			best, bestScore = id, s
		}
	}
	if best >= 0 {
		r.next = (best + 1) % n
	}
	return best, bestScore
}

// RouteExplained is the decision tracer's Route: the same decision (same
// winner, same tie-break state advance), explained into d as the chosen
// host's per-scorer decomposition and the top-k rejected alternatives
// sorted by (score desc, host asc).
func (r *WeightedRouter) RouteExplained(q workload.Query, now simclock.Time, v View, k int, d *obs.RouteDecision) int {
	n := v.Hosts()
	if cap(r.scratch) < n {
		r.scratch = make([]float64, n)
	}
	scores := r.scratch[:n]
	for i := range scores {
		scores[i] = math.NaN() // NaN marks hosts never scored (dead)
	}
	best, bestScore := r.route(q, now, v, scores)
	d.Chosen = best
	if best < 0 {
		return best
	}
	d.Score = bestScore
	// Scorers are pure, so re-scoring the winner per scorer from the
	// decision route prepared matches the summed decision exactly.
	for _, sw := range r.scorers {
		d.Parts = append(d.Parts, obs.ScorePart{
			Scorer: sw.scorer.name,
			Weight: sw.weight,
			Score:  sw.scorer.score(&r.d, best),
		})
	}
	for id := 0; id < n; id++ {
		if id == best || math.IsNaN(scores[id]) {
			continue
		}
		d.Alts = append(d.Alts, obs.AltScore{Host: id, Score: scores[id], Gap: bestScore - scores[id]})
	}
	sort.SliceStable(d.Alts, func(i, j int) bool {
		if d.Alts[i].Score != d.Alts[j].Score {
			return d.Alts[i].Score > d.Alts[j].Score
		}
		return d.Alts[i].Host < d.Alts[j].Host
	})
	if k >= 0 && len(d.Alts) > k {
		d.Alts = d.Alts[:k]
	}
	return best
}

// NewRoundRobin returns the uniform policy: no scorers, so the rotating
// tie-break alone spreads queries over alive hosts in id order. It is the
// paper's implicit baseline: every host observes the full user population,
// so per-host temporal locality equals global locality.
func NewRoundRobin() *WeightedRouter {
	r, _ := NewWeightedRouter("round-robin")
	return r
}

// NewLeastOutstanding returns the classic load-balancing policy as a
// single queue-depth scorer: route to the alive host with the fewest
// in-flight queries at the arrival time (ties rotate). Best tail latency
// under skewed service times, but like round-robin it scatters every user
// across the whole fleet, so caches see global locality only.
func NewLeastOutstanding() *WeightedRouter {
	r, _ := NewWeightedRouter("least-outstanding", ScorerWeight{scorer: scorerNamed("queue"), weight: 1})
	return r
}

// NewSticky returns consistent-hashing user→host pinning (§4.2 / Fig. 4c)
// as a single affinity scorer over a hash ring with vnodes virtual nodes
// per host (vnodes <= 0 selects 64): a user's queries always land on the
// same replica, concentrating their embedding rows in that replica's
// caches. When a host dies only its own users remap (spread across the
// survivors via the ring) and everyone else stays put — the property that
// keeps the §A.4 warmup spike proportional to the failed host's share.
func NewSticky(hosts, vnodes int) *WeightedRouter {
	r, _ := NewWeightedRouter("sticky",
		ScorerWeight{scorer: scorerNamed("affinity"), weight: 1, ring: newRing(hosts, vnodes)})
	return r
}

// ---------------------------------------------------------------------------
// Scorers

// scorer is one entry of the scorer table, named in weight specs and traced
// decisions. score rates one alive host in decision d, higher is better,
// calibrated to [0, 1] so weights express relative importance directly;
// prepare, when set, first fills in d what every host's score reads (rg is
// the composition's hash ring, affinity only). Scores are pure with respect
// to the View — deterministic and free of side effects — so fleet runs stay
// replayable and RouteExplained may re-score the winner. feedback marks a
// score that reads host state through the View (OutstandingAt,
// FMServedRate, WearHeadroom, MigrationBacklog).
type scorer struct {
	name     string
	feedback bool
	prepare  func(d *decision, rg *ring, q workload.Query)
	score    func(d *decision, host int) float64
}

// scorerTable is every scorer a spec may name, sorted by name.
var scorerTable = [...]scorer{
	// affinity is the cache-affinity scorer: 1 for the host owning q.UserID
	// on the composition's consistent-hash ring (dead owners fall through
	// clockwise via View.Alive), 0 otherwise. The ring is built for the
	// fleet size the spec was parsed for; cluster.New rejects a router
	// whose ring does not match its fleet.
	{name: "affinity", prepare: func(d *decision, rg *ring, q workload.Query) {
		d.owner = rg.Owner(q.UserID, d.v.Alive)
	}, score: func(d *decision, host int) float64 {
		if d.owner == host {
			return 1
		}
		return 0
	}},
	// fmserved is the placement-quality scorer: the fraction of the host's
	// store lookups served from fast memory so far, so traffic prefers
	// replicas whose placement has converged on the live hot set.
	{name: "fmserved", feedback: true, score: func(d *decision, host int) float64 {
		return d.v.FMServedRate(host)
	}},
	// loadbal is the long-horizon balance scorer: each host's deficit from
	// the most-loaded host this Run, (max−routed)/(max−min), so the
	// least-loaded host scores 1 and the most-loaded 0 (all hosts score 1
	// when perfectly balanced). It reads only the front-end's own routing
	// ledger, so it needs no host feedback.
	{name: "loadbal", prepare: func(d *decision, _ *ring, _ workload.Query) {
		d.least, d.most = math.MaxInt, -1
		for id := 0; id < d.v.Hosts(); id++ {
			if d.v.Alive(id) {
				r := d.v.Routed(id)
				d.least, d.most = min(d.least, r), max(d.most, r)
			}
		}
	}, score: func(d *decision, host int) float64 {
		if d.most <= d.least {
			return 1
		}
		return float64(d.most-d.v.Routed(host)) / float64(d.most-d.least)
	}},
	// migavoid is the migration-avoidance scorer: 1 for a host with no
	// migration backlog, 0 for a host that is inside a granted migration
	// window with moves pending (its foreground tail is sharing the device
	// with migration IO right now), and 0.5 for a host whose backlog is
	// waiting on a future window (it will migrate soon, mild penalty). The
	// window schedule is a pure function of virtual time; the backlog is
	// live adapter state, so this scorer requires feedback.
	{name: "migavoid", feedback: true, score: func(d *decision, host int) float64 {
		if d.v.MigrationBacklog(host) == 0 {
			return 1
		}
		if d.v.InMigrationWindow(host, d.now) {
			return 0
		}
		return 0.5
	}},
	// queue is the queue-depth scorer: 1/(1+outstanding), so an idle host
	// scores 1 and the score decays toward 0 as the queue grows. The
	// mapping is strictly monotone in the integer queue depth, which is
	// what makes a pure queue-scorer router bit-identical to the legacy
	// least-outstanding struct: same winner, same ties, same rotation.
	{name: "queue", feedback: true, score: func(d *decision, host int) float64 {
		return 1 / (1 + float64(d.v.OutstandingAt(host, d.now)))
	}},
	// wear is the wear scorer: the host's remaining rated-life fraction
	// (View.WearHeadroom), so traffic — and the cache-fill and migration
	// writes it induces — drifts away from replicas burning through their
	// §3 DWPD budget. Flat hosts and fresh devices score 1.
	{name: "wear", feedback: true, score: func(d *decision, host int) float64 {
		return d.v.WearHeadroom(host)
	}},
}

// scorerNamed returns the table entry called name, or nil.
func scorerNamed(name string) *scorer {
	for i := range scorerTable {
		if scorerTable[i].name == name {
			return &scorerTable[i]
		}
	}
	return nil
}

// ScorerNames returns the weight-spec scorer names, sorted.
func ScorerNames() []string {
	names := make([]string, len(scorerTable))
	for i, s := range scorerTable {
		names[i] = s.name
	}
	return names
}

// ParseScorers parses a "name=weight,name=weight" spec (e.g.
// "affinity=1,queue=0.4,migavoid=1.2") into a scorer composition for a
// fleet of the given size (>= 1), in spec order — the order
// NewWeightedRouter sums them in. Names must be known (ScorerNames),
// unique, and weights finite and >= 0. An affinity entry gets a
// 64-vnode ring over the hosts.
func ParseScorers(spec string, hosts int) ([]ScorerWeight, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("cluster: scorer spec for %d hosts: hosts must be >= 1", hosts)
	}
	var out []ScorerWeight
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: scorer spec entry %q is not name=weight", part)
		}
		name = strings.TrimSpace(name)
		s := scorerNamed(name)
		if s == nil {
			return nil, fmt.Errorf("cluster: unknown scorer %q (known: %s)", name, strings.Join(ScorerNames(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: scorer %q listed twice", name)
		}
		seen[name] = true
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: scorer %q weight %q: %v", name, val, err)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("cluster: scorer %q weight %g must be finite and >= 0", name, w)
		}
		sw := ScorerWeight{scorer: s, weight: w}
		if name == "affinity" {
			sw.ring = newRing(hosts, 64)
		}
		out = append(out, sw)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: scorer spec %q has no entries (known scorers: %s)", spec, strings.Join(ScorerNames(), ", "))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Consistent-hash ring

// ring is the consistent-hash virtual-node ring behind sticky affinity:
// each host contributes vnode points, a user maps to the first point
// clockwise from its hash, and dead owners fall through to the next alive
// point. It is immutable after construction — liveness is the caller's
// (the View's) and arrives per lookup.
type ring struct {
	points []ringPoint // sorted by hash; all hosts, dead or alive
	hosts  int
}

type ringPoint struct {
	hash uint64
	host int
}

// newRing builds a ring over hosts replicas with vnodes virtual nodes
// each (vnodes <= 0 selects 64).
func newRing(hosts, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &ring{hosts: hosts}
	for id := 0; id < hosts; id++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: mix64(uint64(id)<<32 | uint64(v)),
				host: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].host < r.points[j].host
	})
	return r
}

// Owner returns the first host clockwise from user's hash for which alive
// returns true, or -1 when no host qualifies.
func (r *ring) Owner(user int64, alive func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := mix64(uint64(user))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if alive(p.host) {
			return p.host
		}
	}
	return -1
}

// mix64 is a SplitMix64-style finalizer used for ring and user hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}
