package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"sdm/internal/simclock"
	"sdm/internal/workload"
)

// scriptView is a scripted View for driving routers without a fleet:
// queue depths and liveness are set per decision by the test.
type scriptView struct {
	n        int
	dead     map[int]bool
	queues   []int
	routed   []int
	fm       []float64
	wear     []float64
	backlog  []int
	inWindow map[int]bool
}

func newScriptView(n int) *scriptView {
	return &scriptView{
		n: n, dead: make(map[int]bool), queues: make([]int, n),
		routed: make([]int, n), fm: make([]float64, n), wear: make([]float64, n),
		backlog: make([]int, n), inWindow: make(map[int]bool),
	}
}

func (v *scriptView) Hosts() int        { return v.n }
func (v *scriptView) Alive(id int) bool { return !v.dead[id] }
func (v *scriptView) Routed(id int) int { return v.routed[id] }
func (v *scriptView) OutstandingAt(id int, _ simclock.Time) int {
	return v.queues[id]
}
func (v *scriptView) FMServedRate(id int) float64 { return v.fm[id] }
func (v *scriptView) WearHeadroom(id int) float64 { return v.wear[id] }
func (v *scriptView) InMigrationWindow(id int, _ simclock.Time) bool {
	return v.inWindow[id]
}
func (v *scriptView) MigrationBacklog(id int) int { return v.backlog[id] }

// legacyLeastOutstanding is the pre-scorer struct, kept verbatim as the
// reference the scorer-backed rewrite must match decision-for-decision.
type legacyLeastOutstanding struct{ next int }

func (r *legacyLeastOutstanding) route(v *scriptView, now simclock.Time) int {
	n := v.Hosts()
	best, bestQ := -1, 0
	for i := 0; i < n; i++ {
		id := (r.next + i) % n
		if !v.Alive(id) {
			continue
		}
		q := v.OutstandingAt(id, now)
		if best < 0 || q < bestQ {
			best, bestQ = id, q
		}
	}
	if best >= 0 {
		r.next = (best + 1) % n
	}
	return best
}

func TestLeastOutstandingTieBreakMatchesLegacy(t *testing.T) {
	// The tie-break contract, pinned: ties break by rotating scan order —
	// the scan starts after the previous winner, only a strictly better
	// score displaces the incumbent, and the start advances past each
	// winner. The scorer-backed router must be bit-identical to the old
	// struct on every trajectory, ties included.
	const hosts = 5
	v := newScriptView(hosts)
	legacy := &legacyLeastOutstanding{}
	scorer := NewLeastOutstanding()
	q := workload.Query{}
	// A deterministic queue-depth script dense in ties: depths cycle over
	// a tiny alphabet so many hosts share the minimum on most steps.
	rng := uint64(0x5eed)
	for step := 0; step < 5000; step++ {
		for id := 0; id < hosts; id++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			v.queues[id] = int((rng >> 59) % 3)
		}
		// Exercise dead-host skipping on part of the trajectory.
		v.dead = map[int]bool{}
		if step%7 == 3 {
			v.dead[int(rng>>61)%hosts] = true
		}
		now := simclock.Time(step)
		want := legacy.route(v, now)
		got := scorer.Route(q, now, v)
		if got != want {
			t.Fatalf("step %d (queues=%v dead=%v): scorer routed %d, legacy %d",
				step, v.queues, v.dead, got, want)
		}
	}
}

func TestRoundRobinMatchesRotation(t *testing.T) {
	// Zero scorers: the rotating tie-break alone is round-robin over
	// alive hosts in id order, including dead-host skipping.
	v := newScriptView(4)
	r := NewRoundRobin()
	q := workload.Query{}
	var got []int
	for step := 0; step < 8; step++ {
		got = append(got, r.Route(q, 0, v))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin sequence %v, want %v", got, want)
		}
	}
	v.dead[2] = true
	got = nil
	for step := 0; step < 6; step++ {
		got = append(got, r.Route(q, 0, v))
	}
	want = []int{0, 1, 3, 0, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin with dead host: %v, want %v", got, want)
		}
	}
	// All dead: no eligible host.
	for id := 0; id < 4; id++ {
		v.dead[id] = true
	}
	if id := r.Route(q, 0, v); id != -1 {
		t.Fatalf("all-dead fleet routed to %d", id)
	}
}

func TestStickyMatchesRingOwner(t *testing.T) {
	// The affinity-scorer router picks exactly the ring owner, with
	// dead-owner fallthrough via View.Alive.
	const hosts = 5
	v := newScriptView(hosts)
	r := NewSticky(hosts, 64)
	ring := newRing(hosts, 64)
	for u := int64(0); u < 2000; u++ {
		q := workload.Query{UserID: u}
		want := ring.Owner(u, v.Alive)
		if got := r.Route(q, 0, v); got != want {
			t.Fatalf("user %d routed to %d, ring owner is %d", u, got, want)
		}
	}
	v.dead[2] = true
	for u := int64(0); u < 2000; u++ {
		q := workload.Query{UserID: u}
		want := ring.Owner(u, v.Alive)
		if got := r.Route(q, 0, v); got != want || got == 2 {
			t.Fatalf("user %d routed to %d after host 2 died, ring owner is %d", u, got, want)
		}
	}
}

// parseOne parses the one-scorer spec name=1 for a fleet of hosts.
func parseOne(t *testing.T, name string, hosts int) ScorerWeight {
	t.Helper()
	sws, err := ParseScorers(name+"=1", hosts)
	if err != nil {
		t.Fatal(err)
	}
	return sws[0]
}

// scoreOne scores host for a query arriving at time 0 by sw alone, as a
// router's decision would: prepare first, then score.
func scoreOne(sw ScorerWeight, v View, host int) float64 {
	d := decision{v: v}
	if sw.scorer.prepare != nil {
		sw.scorer.prepare(&d, sw.ring, workload.Query{})
	}
	return sw.scorer.score(&d, host)
}

func TestWeightedRouterValidation(t *testing.T) {
	if _, err := NewWeightedRouter("x", ScorerWeight{}); err == nil {
		t.Fatal("nil scorer should be rejected")
	}
	// A weight enters a composition only through a spec.
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := ParseScorers(fmt.Sprintf("queue=%g", w), 3); err == nil {
			t.Fatalf("weight %g should be rejected", w)
		}
	}
	r, err := NewWeightedRouter("", parseOne(t, "queue", 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "weighted" {
		t.Fatalf("default name %q", r.Name())
	}
	if !r.Feedback() {
		t.Fatal("queue scorer requires feedback")
	}
	lb, err := NewWeightedRouter("lb", parseOne(t, "loadbal", 3))
	if err != nil {
		t.Fatal(err)
	}
	if lb.Feedback() {
		t.Fatal("load-balance scorer reads only front-end state")
	}
}

// TestScorerTable pins every table entry: its name parses as a spec, only
// affinity carries a ring, and its feedback flag — which picks inline over
// queued execution in Fleet.Run — reaches the router.
func TestScorerTable(t *testing.T) {
	feedback := map[string]bool{
		"affinity": false, "fmserved": true, "loadbal": false,
		"migavoid": true, "queue": true, "wear": true,
	}
	names := ScorerNames()
	if !sort.StringsAreSorted(names) || len(names) != len(feedback) {
		t.Fatalf("ScorerNames() = %v, want the %d pinned names sorted", names, len(feedback))
	}
	for _, name := range names {
		want, ok := feedback[name]
		if !ok {
			t.Fatalf("scorer %q has no pinned feedback flag", name)
		}
		sw := parseOne(t, name, 4)
		if sw.scorer.name != name || (sw.ring != nil) != (name == "affinity") {
			t.Fatalf("%s=1 parsed as %+v", name, sw)
		}
		r, err := NewWeightedRouter("", sw)
		if err != nil {
			t.Fatal(err)
		}
		if r.Feedback() != want {
			t.Errorf("%s: router Feedback() = %t, want %t", name, r.Feedback(), want)
		}
	}
}

func TestParseScorers(t *testing.T) {
	sws, err := ParseScorers("affinity=1, queue=0.4 ,migavoid=1.2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sws) != 3 || sws[0].scorer.name != "affinity" || sws[1].weight != 0.4 {
		t.Fatalf("parsed %+v", sws)
	}
	if sws[0].ring == nil || sws[0].ring.hosts != 3 {
		t.Fatalf("affinity ring %+v, want one over 3 hosts", sws[0].ring)
	}
	for _, bad := range []string{
		"", "queue", "queue=x", "queue=-1", "queue=Inf", "bogus=1", "queue=1,queue=2", " , ",
	} {
		if _, err := ParseScorers(bad, 3); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
	if _, err := ParseScorers("bogus=1", 3); err == nil || !strings.Contains(err.Error(), "affinity") {
		t.Fatalf("unknown-scorer error should list known names, got %v", err)
	}
	// A fleet size below one is rejected here, by name, not later by New.
	for _, hosts := range []int{0, -1} {
		if _, err := ParseScorers("affinity=1", hosts); err == nil || !strings.Contains(err.Error(), "hosts") {
			t.Fatalf("ParseScorers at %d hosts: error %v, want one naming hosts", hosts, err)
		}
	}
}

func TestMigrationAvoidScorerGating(t *testing.T) {
	// The avoidance scorer penalizes only hosts that are actually
	// migrating: full penalty inside a granted window with backlog, half
	// penalty for backlog waiting on a future window, none when idle.
	s := parseOne(t, "migavoid", 3)
	v := newScriptView(3)
	if got := scoreOne(s, v, 0); got != 1 {
		t.Fatalf("idle host scored %g, want 1", got)
	}
	v.backlog[0] = 4
	v.inWindow[0] = true
	if got := scoreOne(s, v, 0); got != 0 {
		t.Fatalf("in-window migrating host scored %g, want 0", got)
	}
	v.inWindow[0] = false
	if got := scoreOne(s, v, 0); got != 0.5 {
		t.Fatalf("backlogged out-of-window host scored %g, want 0.5", got)
	}
}

func TestLoadBalanceScorerDeficit(t *testing.T) {
	s := parseOne(t, "loadbal", 3)
	v := newScriptView(3)
	v.routed = []int{10, 4, 7}
	if got := scoreOne(s, v, 1); got != 1 {
		t.Fatalf("least-loaded host scored %g, want 1", got)
	}
	if got := scoreOne(s, v, 0); got != 0 {
		t.Fatalf("most-loaded host scored %g, want 0", got)
	}
	if got := scoreOne(s, v, 2); got != 0.5 {
		t.Fatalf("mid host scored %g, want 0.5", got)
	}
	// Perfect balance scores everyone 1 (pure rotation).
	v.routed = []int{5, 5, 5}
	if got := scoreOne(s, v, 2); got != 1 {
		t.Fatalf("balanced host scored %g, want 1", got)
	}
}

func TestAdmitConfigValidation(t *testing.T) {
	if err := (AdmitConfig{Classes: []ClassAdmit{{RatePerSec: math.NaN()}}}).Validate(); err == nil {
		t.Fatal("NaN rate should be rejected")
	}
	if err := (AdmitConfig{Classes: []ClassAdmit{{RatePerSec: 10, Burst: -1}}}).Validate(); err == nil {
		t.Fatal("negative burst should be rejected")
	}
	if err := (AdmitConfig{Classes: []ClassAdmit{{RatePerSec: 10, Burst: 2, Queue: true}}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseAdmit(t *testing.T) {
	cfg, err := ParseAdmit("gold=3000:30, best-effort=2000:20:queue ,bulk=100:queue")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Classes) != 3 {
		t.Fatalf("parsed %d classes", len(cfg.Classes))
	}
	if c := cfg.Classes[0]; c.Name != "gold" || c.RatePerSec != 3000 || c.Burst != 30 || c.Queue {
		t.Fatalf("gold parsed as %+v", c)
	}
	if c := cfg.Classes[1]; c.Name != "best-effort" || c.Burst != 20 || !c.Queue {
		t.Fatalf("best-effort parsed as %+v", c)
	}
	if c := cfg.Classes[2]; c.RatePerSec != 100 || c.Burst != 0 || !c.Queue {
		t.Fatalf("two-field queue entry parsed as %+v", c)
	}
	for _, bad := range []string{
		"", "gold", "gold=", "=3000", "gold=x", "gold=NaN", "gold=1:-2",
		"gold=1:2:drop", "gold=1:2:3:4",
	} {
		if _, err := ParseAdmit(bad); err == nil {
			t.Fatalf("spec %q should be rejected", bad)
		}
	}
	if _, err := ParseAdmit("a=500, a =400"); err == nil || !strings.Contains(err.Error(), `class "a" listed twice`) {
		t.Fatalf("duplicate class: error %v, want one naming the class", err)
	}
}

func TestTokenBucketAdmission(t *testing.T) {
	sec := simclock.Time(1e9)
	// Shed mode: burst of 2 admits the first two arrivals of a burst,
	// then sheds until tokens accrue.
	s := newAdmitState(AdmitConfig{Classes: []ClassAdmit{{RatePerSec: 1, Burst: 2}}})
	admits := 0
	for i := 0; i < 5; i++ {
		if _, _, ok, _ := s.admit(0, sec); ok {
			admits++
		}
	}
	if admits != 2 {
		t.Fatalf("burst-2 bucket admitted %d of 5 simultaneous arrivals, want 2", admits)
	}
	// One second later exactly one token has accrued.
	if _, _, ok, _ := s.admit(0, 2*sec); !ok {
		t.Fatal("refilled bucket should admit")
	}
	if _, _, ok, _ := s.admit(0, 2*sec); ok {
		t.Fatal("drained bucket should shed")
	}
	// Queue mode delays admission to the next token instead of shedding.
	qs := newAdmitState(AdmitConfig{Classes: []ClassAdmit{{RatePerSec: 2, Burst: 1, Queue: true}}})
	if at, _, ok, _ := qs.admit(0, sec); !ok || at != sec {
		t.Fatalf("first arrival should admit immediately, got at=%v ok=%t", at, ok)
	}
	at, _, ok, _ := qs.admit(0, sec)
	if !ok || at != sec+sec/2 {
		t.Fatalf("queued arrival should admit half a second later, got at=%v ok=%t", at, ok)
	}
	// Unconfigured classes pass through untouched.
	if at, _, ok, _ := qs.admit(5, sec); !ok || at != sec {
		t.Fatalf("unconfigured class should pass through, got at=%v ok=%t", at, ok)
	}
}

func TestQueueAdmissionBoundsSustainedRate(t *testing.T) {
	// Regression: queued admissions must serialize at 1/rate spacing even
	// when arrivals outpace the bucket. The broken version measured each
	// wait from the arrival's own timestamp, double-counting overlapping
	// accrual windows, so a 10/s bucket offered 1000/s admitted at ~909/s.
	const (
		rate = 10.0
		n    = 100
	)
	s := newAdmitState(AdmitConfig{Classes: []ClassAdmit{{RatePerSec: rate, Burst: 1, Queue: true}}})
	gap := simclock.Time(time.Millisecond) // 1000/s offered, 100x the rate
	var first, last simclock.Time
	prev := simclock.Time(-1)
	for i := 0; i < n; i++ {
		at, _, ok, _ := s.admit(0, simclock.Time(i)*gap)
		if !ok {
			t.Fatalf("queue-mode bucket shed arrival %d", i)
		}
		if at < prev {
			t.Fatalf("admission times regressed: arrival %d admitted at %v after %v", i, at, prev)
		}
		prev = at
		if i == 0 {
			first = at
		}
		last = at
	}
	// n admissions from a burst-1 bucket need at least (n-1)/rate seconds
	// of accrual after the first: the admitted rate is bounded by the
	// configured rate regardless of the offered rate.
	minSpan := simclock.Time(float64(n-1) / rate * float64(time.Second))
	if span := last - first; span < minSpan {
		t.Fatalf("admitted %d queries over %v, want >= %v (rate %g/s not bounded)",
			n, time.Duration(span), time.Duration(minSpan), rate)
	}
}

func TestQueueAdmissionPastEndOfTime(t *testing.T) {
	// A queue class so slow that its waits outrun virtual time: at 1e-9/s
	// each queued query waits 1e18 ns, so the eleventh admission would
	// land past math.MaxInt64. It fails naming the class and its rate
	// instead of wrapping the clock into an admission at arrival.
	s := newAdmitState(AdmitConfig{Classes: []ClassAdmit{{Name: "trickle", RatePerSec: 1e-9, Burst: 1, Queue: true}}})
	prev := simclock.Time(-1)
	for i := 0; i < 10; i++ {
		at, _, ok, err := s.admit(0, 0)
		if err != nil || !ok || at <= prev {
			t.Fatalf("arrival %d: at=%d ok=%t err=%v, want an admission after %d", i, at, ok, err, prev)
		}
		prev = at
	}
	at, _, ok, err := s.admit(0, 0)
	if err == nil || !strings.Contains(err.Error(), "trickle") || !strings.Contains(err.Error(), "1e-09") {
		t.Fatalf("arrival 10: at=%d ok=%t err=%v, want an error naming the class and its rate", at, ok, err)
	}
}
