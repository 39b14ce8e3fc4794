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

// View is the per-host fleet state a Router (and its Scorers) may consult
// when picking a target. Liveness lives here — the fleet owns it, routers
// only read it. Signals split into two classes:
//
//   - Front-end state (Hosts, Alive, Routed, InMigrationWindow):
//     maintained by the routing loop itself or pure functions of virtual
//     time, always safe to read.
//   - Host state (OutstandingAt, FMServedRate, WearHeadroom,
//     MigrationBacklog): owned by the hosts, valid only from routers
//     whose Feedback() is true — the fleet then executes every routed
//     query on the routing goroutine before the next decision, so each
//     read sees the state after all routed queries, race-free and
//     deterministic.
type View interface {
	// Hosts returns the fleet size (host ids are 0..Hosts()-1).
	Hosts() int
	// Alive reports whether host id is serving.
	Alive(id int) bool
	// OutstandingAt returns host id's in-flight query count at virtual
	// time t. Only valid from routers with Feedback() == true.
	OutstandingAt(id int, t simclock.Time) int
	// Routed returns how many queries this Run has routed to host id —
	// the front-end's own load ledger, available without host feedback.
	Routed(id int) int
	// FMServedRate returns the fraction of host id's store lookups served
	// from fast memory so far (0 for flat hosts). Only valid when
	// Feedback() == true.
	FMServedRate(id int) float64
	// WearHeadroom returns the host's remaining rated SM endurance as a
	// fraction in [0, 1] (1 for flat hosts and fresh devices). Only valid
	// when Feedback() == true.
	WearHeadroom(id int) float64
	// InMigrationWindow reports whether host id may issue migration IO at
	// t: inside its coordinator-granted window, or always when no
	// coordinator gates migration. Pure function of (id, t).
	InMigrationWindow(id int, t simclock.Time) bool
	// MigrationBacklog returns the host's queued plus in-flight migration
	// move count (0 without adapters). Only valid when Feedback() == true.
	MigrationBacklog(id int) int
}

// Router is a pluggable user→host routing policy. Implementations must be
// deterministic: the same sequence of Route calls over the same Views
// yields the same decisions, which is what makes fleet runs replayable.
// Host liveness is the fleet's job and arrives through View.Alive; routers
// hold no liveness state of their own.
type Router interface {
	// Name identifies the policy in results.
	Name() string
	// Route picks an alive host for q arriving at now, or -1 when no host
	// is eligible.
	Route(q workload.Query, now simclock.Time, v View) int
	// Feedback reports whether Route reads live host state through the
	// View; the fleet then finishes every routed query before the next
	// decision (Fleet.Run executes inline instead of queueing).
	Feedback() bool
}

// Scorer rates one host for one query: higher is better. Scores should be
// calibrated to [0, 1] so WeightedRouter weights express relative
// importance directly. Scorers must be pure with respect to the View —
// deterministic and free of side effects — so fleet runs stay replayable.
type Scorer interface {
	// Name identifies the scorer in weight specs and diagnostics.
	Name() string
	// Score rates host for q arriving at now. Dead hosts are never
	// scored; the router skips them first.
	Score(q workload.Query, now simclock.Time, host int, v View) float64
	// Feedback reports whether Score reads live host state through the
	// View (OutstandingAt, Snapshot, wear, migration backlog).
	Feedback() bool
}

// ScorerWeight pairs a Scorer with its weight in a WeightedRouter's sum.
type ScorerWeight struct {
	Scorer Scorer
	Weight float64
}

// WeightedRouter picks the alive host maximizing the weighted sum of its
// scorers — the composable policy the closed round-robin/least-
// outstanding/sticky structs are rewritten on top of.
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

	// scratch holds per-host scores for RouteExplained, reused across
	// calls so tracing does not allocate per decision.
	scratch []float64
}

// NewWeightedRouter composes scorers into a router. Weights must be
// finite and >= 0; nil scorers are rejected. No scorers at all is valid
// and yields pure rotating (round-robin) selection. An empty name selects
// "weighted".
func NewWeightedRouter(name string, scorers ...ScorerWeight) (*WeightedRouter, error) {
	if name == "" {
		name = "weighted"
	}
	r := &WeightedRouter{name: name, scorers: scorers}
	for _, sw := range scorers {
		if sw.Scorer == nil {
			return nil, fmt.Errorf("cluster: weighted router %q has a nil scorer", name)
		}
		if math.IsNaN(sw.Weight) || math.IsInf(sw.Weight, 0) || sw.Weight < 0 {
			return nil, fmt.Errorf("cluster: weighted router %q: scorer %s weight %g must be finite and >= 0",
				name, sw.Scorer.Name(), sw.Weight)
		}
		if sw.Scorer.Feedback() {
			r.feedback = true
		}
	}
	return r, nil
}

// Name implements Router.
func (r *WeightedRouter) Name() string { return r.name }

// Feedback implements Router: true when any scorer reads live host state.
func (r *WeightedRouter) Feedback() bool { return r.feedback }

// Route implements Router: argmax of the weighted score over alive hosts,
// ties broken by rotating scan order (see type comment).
func (r *WeightedRouter) Route(q workload.Query, now simclock.Time, v View) int {
	best, _ := r.route(q, now, v, nil)
	return best
}

// route is the shared decision loop: argmax with the rotating tie-break.
// A non-nil scores slice (len >= Hosts) additionally records every alive
// host's score (dead hosts keep NaN) — the explained path; the nil path
// is allocation-free.
func (r *WeightedRouter) route(q workload.Query, now simclock.Time, v View, scores []float64) (int, float64) {
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
			s += sw.Weight * sw.Scorer.Score(q, now, id, v)
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
	// Scorers are pure, so re-scoring the winner per scorer is free of
	// side effects and matches the summed decision exactly.
	for _, sw := range r.scorers {
		d.Parts = append(d.Parts, obs.ScorePart{
			Scorer: sw.Scorer.Name(),
			Weight: sw.Weight,
			Score:  sw.Scorer.Score(q, now, best, v),
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
	r, _ := NewWeightedRouter("least-outstanding", ScorerWeight{Scorer: NewQueueScorer(), Weight: 1})
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
	r, _ := NewWeightedRouter("sticky", ScorerWeight{Scorer: NewAffinityScorer(hosts, vnodes), Weight: 1})
	return r
}

// ---------------------------------------------------------------------------
// Scorers

// queueScorer rates hosts by inverse queue depth.
type queueScorer struct{}

// NewQueueScorer returns the queue-depth scorer: 1/(1+outstanding), so an
// idle host scores 1 and score decays toward 0 as the queue grows. The
// mapping is strictly monotone in the integer queue depth, which is what
// makes a pure queue-scorer router bit-identical to the legacy
// least-outstanding struct: same winner, same ties, same rotation.
func NewQueueScorer() Scorer { return queueScorer{} }

func (queueScorer) Name() string   { return "queue" }
func (queueScorer) Feedback() bool { return true }
func (queueScorer) Score(_ workload.Query, now simclock.Time, host int, v View) float64 {
	return 1 / (1 + float64(v.OutstandingAt(host, now)))
}

// affinityScorer rates the user's ring owner 1 and everyone else 0.
type affinityScorer struct {
	ring *Ring
}

// NewAffinityScorer returns the cache-affinity scorer: 1 for the host
// owning q.UserID on a consistent-hash ring (dead owners fall through
// clockwise via View.Alive), 0 otherwise. vnodes <= 0 selects 64. The
// hosts count must match the fleet the scorer is routed against:
// cluster.New rejects a WeightedRouter carrying a mismatched ring, and Score
// panics on one that reaches it inside a custom Router rather than silently
// pinning users to a subset (hosts too small) or degrading affinity to
// rotation (hosts too large).
func NewAffinityScorer(hosts, vnodes int) Scorer {
	return affinityScorer{ring: NewRing(hosts, vnodes)}
}

// checkHosts rejects a composition whose affinity ring was built for a
// fleet of another size than the n hosts it is about to route against.
func (r *WeightedRouter) checkHosts(n int) error {
	for _, sw := range r.scorers {
		if a, ok := sw.Scorer.(affinityScorer); ok && a.ring.Hosts() != n {
			return fmt.Errorf("cluster: router %q: affinity ring built for %d hosts cannot route a %d-host fleet",
				r.name, a.ring.Hosts(), n)
		}
	}
	return nil
}

func (affinityScorer) Name() string   { return "affinity" }
func (affinityScorer) Feedback() bool { return false }
func (s affinityScorer) Score(q workload.Query, _ simclock.Time, host int, v View) float64 {
	if s.ring.Hosts() != v.Hosts() {
		panic(fmt.Sprintf("cluster: affinity scorer ring built for %d hosts routed against a %d-host fleet",
			s.ring.Hosts(), v.Hosts()))
	}
	if s.ring.Owner(q.UserID, v.Alive) == host {
		return 1
	}
	return 0
}

// loadBalanceScorer rates hosts by routed-count deficit.
type loadBalanceScorer struct{}

// NewLoadBalanceScorer returns the long-horizon balance scorer: each
// host's deficit from the most-loaded host this Run, (max−routed)/(max−min),
// so the least-loaded host scores 1 and the most-loaded 0 (all hosts score
// 1 when perfectly balanced). It reads only the front-end's own routing
// ledger, so it needs no host feedback.
func NewLoadBalanceScorer() Scorer { return loadBalanceScorer{} }

func (loadBalanceScorer) Name() string   { return "loadbal" }
func (loadBalanceScorer) Feedback() bool { return false }
func (loadBalanceScorer) Score(_ workload.Query, _ simclock.Time, host int, v View) float64 {
	n := v.Hosts()
	min, max := -1, -1
	for id := 0; id < n; id++ {
		if !v.Alive(id) {
			continue
		}
		r := v.Routed(id)
		if min < 0 || r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max <= min {
		return 1
	}
	return float64(max-v.Routed(host)) / float64(max-min)
}

// migrationAvoidScorer steers traffic away from actively migrating hosts.
type migrationAvoidScorer struct{}

// NewMigrationAvoidScorer returns the migration-avoidance scorer: 1 for a
// host with no migration backlog, 0 for a host that is inside a granted
// migration window with moves pending (its foreground tail is sharing the
// device with migration IO right now), and 0.5 for a host whose backlog
// is waiting on a future window (it will migrate soon, mild penalty). The
// window schedule is a pure function of virtual time; the backlog is live
// adapter state, so this scorer requires feedback.
func NewMigrationAvoidScorer() Scorer { return migrationAvoidScorer{} }

func (migrationAvoidScorer) Name() string   { return "migavoid" }
func (migrationAvoidScorer) Feedback() bool { return true }
func (migrationAvoidScorer) Score(_ workload.Query, now simclock.Time, host int, v View) float64 {
	if v.MigrationBacklog(host) == 0 {
		return 1
	}
	if v.InMigrationWindow(host, now) {
		return 0
	}
	return 0.5
}

// wearScorer rates hosts by remaining SM endurance.
type wearScorer struct{}

// NewWearScorer returns the wear scorer: the host's remaining rated-life
// fraction (View.WearHeadroom), so traffic — and the cache-fill and
// migration writes it induces — drifts away from replicas burning through
// their §3 DWPD budget. Flat hosts and fresh devices score 1.
func NewWearScorer() Scorer { return wearScorer{} }

func (wearScorer) Name() string   { return "wear" }
func (wearScorer) Feedback() bool { return true }
func (wearScorer) Score(_ workload.Query, _ simclock.Time, host int, v View) float64 {
	return v.WearHeadroom(host)
}

// fmServedScorer rates hosts by their FM-served rate.
type fmServedScorer struct{}

// NewFMServedScorer returns the placement-quality scorer: the fraction of
// the host's store lookups served from fast memory so far, so traffic
// prefers replicas whose placement has converged on the live hot set.
func NewFMServedScorer() Scorer { return fmServedScorer{} }

func (fmServedScorer) Name() string   { return "fmserved" }
func (fmServedScorer) Feedback() bool { return true }
func (fmServedScorer) Score(_ workload.Query, _ simclock.Time, host int, v View) float64 {
	return v.FMServedRate(host)
}

// scorerFactories maps weight-spec names to constructors; affinity needs
// the fleet size for its ring.
var scorerFactories = map[string]func(hosts int) Scorer{
	"queue":    func(int) Scorer { return NewQueueScorer() },
	"affinity": func(hosts int) Scorer { return NewAffinityScorer(hosts, 64) },
	"loadbal":  func(int) Scorer { return NewLoadBalanceScorer() },
	"migavoid": func(int) Scorer { return NewMigrationAvoidScorer() },
	"wear":     func(int) Scorer { return NewWearScorer() },
	"fmserved": func(int) Scorer { return NewFMServedScorer() },
}

// ScorerNames returns the weight-spec scorer names, sorted.
func ScorerNames() []string {
	names := make([]string, 0, len(scorerFactories))
	for n := range scorerFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseScorers parses a "name=weight,name=weight" spec (e.g.
// "affinity=1,queue=0.4,migavoid=1.2") into a scorer composition for a
// fleet of the given size (>= 1). Names must be known (ScorerNames),
// unique, and weights finite and >= 0.
func ParseScorers(spec string, hosts int) ([]ScorerWeight, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("cluster: scorer spec for %d hosts: hosts must be >= 1", hosts)
	}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty scorer spec (known scorers: %s)", strings.Join(ScorerNames(), ", "))
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
		mk, known := scorerFactories[name]
		if !known {
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
		out = append(out, ScorerWeight{Scorer: mk(hosts), Weight: w})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: scorer spec %q has no entries", spec)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Consistent-hash ring

// Ring is the consistent-hash virtual-node ring behind sticky affinity:
// each host contributes vnode points, a user maps to the first point
// clockwise from its hash, and dead owners fall through to the next alive
// point. It is immutable after construction — liveness is the caller's
// (the View's) and arrives per lookup.
type Ring struct {
	points []ringPoint // sorted by hash; all hosts, dead or alive
	hosts  int
}

type ringPoint struct {
	hash uint64
	host int
}

// NewRing builds a ring over hosts replicas with vnodes virtual nodes
// each (vnodes <= 0 selects 64).
func NewRing(hosts, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{hosts: hosts}
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

// Hosts returns the replica count the ring was built over.
func (r *Ring) Hosts() int { return r.hosts }

// Owner returns the first host clockwise from user's hash for which alive
// returns true, or -1 when no host qualifies. A nil alive accepts every
// host.
func (r *Ring) Owner(user int64, alive func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	h := mix64(uint64(user))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(i+k)%len(r.points)]
		if alive == nil || alive(p.host) {
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
