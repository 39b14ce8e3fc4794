package workload

import (
	"testing"

	"sdm/internal/embedding"
)

func TestPerHostCDFDominatesGlobal(t *testing.T) {
	// Fig. 4c: the temporal-locality CDF one host observes under sticky
	// user→host routing dominates the CDF of the global user mix — each
	// host sees fewer distinct users, so the same row-population fraction
	// covers more of its accesses. The global mix is evaluated at the
	// same per-host trace length (round-robin routing delivers exactly
	// the unpartitioned population to every host); comparing against the
	// full-length trace would confound routing with trace size.
	in := smallInstance(t)
	g := newGen(t, in, Config{Seed: 29, NumUsers: 2000, UserAlpha: 0.8})
	qs := g.GenerateTrace(2000)

	global := AverageCDF(TemporalLocality(in, roundRobinShare(qs, 8), 1), embedding.User)
	perHost := AverageCDF(PerHostTemporalLocality(in, qs, 8), embedding.User)
	if global == nil || perHost == nil {
		t.Fatal("CDFs missing")
	}
	if len(global) != len(perHost) {
		t.Fatalf("CDF lengths differ: %d vs %d", len(global), len(perHost))
	}
	strictly := false
	for k := range global {
		// Pointwise dominance up to sampling noise: the per-host trace is
		// 1/8 the size, so the hottest-row point (frac 1e-4 ≈ one row)
		// can wobble by a couple of percent.
		if perHost[k].Frac+0.02 < global[k].Frac {
			t.Fatalf("per-host CDF %.4f below global %.4f at rows frac %g",
				perHost[k].Frac, global[k].Frac, global[k].X)
		}
		// The interior of the curve is where the uplift shows; the
		// endpoints converge to 1 by construction.
		if global[k].X < 1 && perHost[k].Frac > global[k].Frac+0.01 {
			strictly = true
		}
	}
	if !strictly {
		t.Fatal("per-host CDF should clearly dominate the global one in the interior")
	}
}

// roundRobinShare is the share of qs one of hosts round-robin-routed hosts
// receives: every hosts-th query.
func roundRobinShare(qs []Query, hosts int) []Query {
	var out []Query
	for i := hosts - 1; i < len(qs); i += hosts {
		out = append(out, qs[i])
	}
	return out
}

func TestUserPartitionStable(t *testing.T) {
	// The sticky hash shared by the offline analysis and the generator's
	// SLO classes: stable per user and in range.
	for u := int64(0); u < 500; u++ {
		p := UserPartition(u, 5)
		if p < 0 || p >= 5 {
			t.Fatalf("partition %d out of range for user %d", p, u)
		}
		if p != UserPartition(u, 5) {
			t.Fatalf("partition unstable for user %d", u)
		}
	}
	if UserPartition(123, 1) != 0 || UserPartition(123, 0) != 0 {
		t.Fatal("degenerate partition counts must map to 0")
	}
}
