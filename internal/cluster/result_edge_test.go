package cluster

import (
	"testing"

	"sdm/internal/simclock"
)

// rec builds one completed record arriving at a, done at d.
func rec(user int64, a, d simclock.Time) record {
	return record{arrive: a, done: d, user: user, host: 0, ok: true}
}

// oneHost is a bare one-host fleet with n windows, no meter and no
// failure: enough for its fold to run exactly as in an unmetered Run.
func oneHost(n int) *Fleet {
	return &Fleet{members: make([]*member, 1), cfg: Config{Windows: n}}
}

// windows folds recs into n windows over [start, end].
func windows(recs []record, start, end simclock.Time, n int) []WindowStat {
	return oneHost(n).fold(recs, start, end, 0, false).windowStats(nil)
}

func TestWindowizeEdges(t *testing.T) {
	recs := []record{rec(1, 0, 10), rec(2, 50, 70)}

	// Degenerate spans and window counts produce no series rather than
	// panicking or emitting zero-width windows.
	if w := windows(nil, 0, 100, 4); len(w) != 4 {
		t.Fatalf("empty records should still yield the window frames, got %d", len(w))
	}
	if w := windows(recs, 0, 100, 0); w != nil {
		t.Fatalf("n=0 should yield nil, got %v", w)
	}
	if w := windows(recs, 100, 100, 4); w != nil {
		t.Fatalf("end==start should yield nil, got %v", w)
	}
	if w := windows(recs, 100, 50, 4); w != nil {
		t.Fatalf("end<start should yield nil, got %v", w)
	}
	// A span narrower than the window count (integer width 0) is refused.
	if w := windows(recs, 0, 3, 4); w != nil {
		t.Fatalf("sub-resolution span should yield nil, got %v", w)
	}

	// A single record landing exactly on the last arrival: the final
	// window's half-open bound is widened to include it.
	one := []record{rec(1, 100, 110)}
	w := windows(one, 0, 100, 4)
	if len(w) != 4 {
		t.Fatalf("want 4 windows, got %d", len(w))
	}
	var total int
	for _, win := range w {
		total += win.Queries
	}
	if total != 1 || w[3].Queries != 1 {
		t.Fatalf("final arrival lost at the boundary: %+v", w)
	}
	// Interior bounds stay half-open: an arrival at a window edge counts
	// exactly once, in the later window.
	edge := []record{rec(1, 25, 30)}
	w = windows(edge, 0, 100, 4)
	if w[0].Queries != 0 || w[1].Queries != 1 {
		t.Fatalf("edge arrival double- or mis-counted: %+v", w[:2])
	}
}

func TestDeriveWindowsBounds(t *testing.T) {
	recs := []record{
		rec(1, 10, 20),
		rec(2, 19, 40),
		rec(3, 20, 25),         // exactly at the interior edge — later window
		{arrive: 15, done: 30}, // !ok: dropped mid-run, never aggregated
		rec(4, 9, 12),          // below start: outside every window
	}
	w := windows(recs, 10, 30, 2)
	if w[0].Queries != 2 {
		t.Fatalf("[10,20) should hold exactly 2 records, got %d", w[0].Queries)
	}
	if w[1].Queries != 1 {
		t.Fatalf("[20,31) should hold exactly 1 record, got %d", w[1].Queries)
	}
	if w[0].Start != 10 || w[0].End != 20 {
		t.Fatalf("window bounds not preserved: %+v", w[0])
	}
	// Mean over the two included latencies (10ns and 21ns).
	if w[0].MeanLat <= 0 || w[0].MeanLat > 21e-9 {
		t.Fatalf("mean latency implausible: %v", w[0].MeanLat)
	}

	// An empty window keeps its zero stats (no NaNs from 0/0).
	empty := windows(recs, 500, 700, 2)
	if empty[0].Queries != 0 || empty[0].MeanLat != 0 || empty[0].SMPerQuery != 0 {
		t.Fatalf("empty window not zero-valued: %+v", empty[0])
	}

	// Records outside the frame still count for their host.
	rf := oneHost(2).fold(recs, 10, 30, 0, false)
	if rf.hosts[0].queries != 4 || rf.lastDone != 40 {
		t.Fatalf("host tally holds %d records, last done %d; want 4 and 40", rf.hosts[0].queries, rf.lastDone)
	}
}

func TestAffectedSplitBoundary(t *testing.T) {
	rerouted := map[int64]struct{}{1: {}, 2: {}}
	recs := []record{
		rec(1, 10, 20),                  // pre
		rec(2, 50, 80),                  // arrival exactly at the failure instant — post
		rec(1, 60, 90),                  // post
		rec(3, 10, 15),                  // unaffected user: excluded from both sides
		{arrive: 55, done: 70, user: 2}, // !ok: excluded
	}
	f := oneHost(0)
	f.rerouted, f.failedAt = rerouted, 50
	rf := f.fold(recs, 0, 0, 0, true)
	pre, post := rf.split[0], rf.split[1]
	if pre.queries != 1 {
		t.Fatalf("pre split got %d queries, want 1", pre.queries)
	}
	if post.queries != 2 {
		t.Fatalf("post split got %d queries, want 2 (boundary arrival is post)", post.queries)
	}
	if pre.lat.Mean() <= 0 || post.lat.Mean() <= 0 {
		t.Fatalf("split means empty: pre=%v post=%v", pre.lat.Mean(), post.lat.Mean())
	}

	// No rerouted users: both sides empty, means stay zero.
	f.rerouted = map[int64]struct{}{}
	rf = f.fold(recs, 0, 0, 0, true)
	pre, post = rf.split[0], rf.split[1]
	if pre.queries != 0 || post.queries != 0 || pre.lat.Mean() != 0 || post.lat.Mean() != 0 {
		t.Fatalf("empty rerouted set should yield zero splits: %d/%d", pre.queries, post.queries)
	}
	// No failure this Run: no split at all.
	f.rerouted = rerouted
	if rf = f.fold(recs, 0, 0, 0, false); len(rf.split) != 0 {
		t.Fatalf("a run without a failure folded a split: %v", rf.split)
	}
}
