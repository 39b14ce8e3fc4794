package cluster

import (
	"math"
	"testing"

	"sdm/internal/serving"
)

// flatHosts builds n DRAM-only hosts over the test model: enough of a fleet
// for cluster.New and SetAdmission to judge a parsed spec, at no store cost.
func flatHosts(f *testing.F, n int) []*serving.Host {
	f.Helper()
	in, tables := fixture(f)
	hosts, err := HostSet(in, tables, n, nil, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		f.Fatal(err)
	}
	return hosts
}

// FuzzParseAdmit feeds arbitrary -admit specs to ParseAdmit. The only legal
// outcomes are an error or a config with unique class names that Validate
// accepts and a 2-host fleet's SetAdmission takes. Seeds are every spec
// literal in the tree: bench/, the Makefile smoke, sdmcluster's doc and
// tests, README and TestParseAdmit.
func FuzzParseAdmit(f *testing.F) {
	for _, spec := range []string{
		"gold=760:24,best-effort=620:10:queue",
		"gold=200:20,best-effort=100:10:queue",
		"gold=300:30,best-effort=200:20:queue",
		"gold=3000:30,best-effort=2000:20:queue",
		"gold=3000:30, best-effort=2000:20:queue ,bulk=100:queue",
		"gold", "gold=", "=3000", "gold=x", "gold=NaN", "gold=1:-2",
		"gold=1:2:drop", "gold=1:2:3:4", "a=500,a=400", "",
	} {
		f.Add(spec)
	}
	fl, err := New(flatHosts(f, 2), NewSticky(2, 64), Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseAdmit(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseAdmit(%q) = %+v, which Validate rejects: %v", spec, cfg, err)
		}
		seen := make(map[string]bool)
		for _, cl := range cfg.Classes {
			if cl.Name == "" || seen[cl.Name] {
				t.Fatalf("ParseAdmit(%q): class name %q empty or repeated", spec, cl.Name)
			}
			seen[cl.Name] = true
		}
		if err := fl.SetAdmission(cfg); err != nil {
			t.Fatalf("ParseAdmit(%q) = %+v, which SetAdmission rejects: %v", spec, cfg, err)
		}
	})
}

// FuzzParseScorers feeds arbitrary -scorers specs and fleet sizes to
// ParseScorers. The only legal outcomes are an error or weights that
// NewWeightedRouter and cluster.New accept at the same host count. The host
// count is an int8: an affinity ring is hosts × 64 points, and any size
// that fits a test fleet exercises the same checks. Seeds are every spec
// literal in the tree (bench/, the Makefile smoke, README, sdmcluster's
// tests, this package's tests) at the host counts they run with.
func FuzzParseScorers(f *testing.F) {
	for _, c := range []struct {
		spec  string
		hosts int8
	}{
		{"affinity=1,queue=0.4,loadbal=0.1,migavoid=1.2,wear=0.2,fmserved=0.3", 16},
		{"affinity=1,queue=0.4,migavoid=1.2", 8},
		{"affinity=1,queue=0.4,migavoid=1.2", 3},
		{"affinity=1, queue=0.4 ,migavoid=1.2", 3},
		{"affinity=1,queue=0.4,loadbal=0.1,fmserved=0.3", 4},
		{"queue=0.4,affinity=1", 4},
		{"queue=0.4,affinity=1", 3},
		{"luck=1", 2},
		{"affinity=1", 0},
		{"affinity=1", -1},
		{"", 3}, {"queue", 3}, {"queue=x", 3}, {"queue=-1", 3}, {"queue=Inf", 3},
		{"queue=1,queue=2", 3}, {" , ", 3},
	} {
		f.Add(c.spec, c.hosts)
	}
	pool := flatHosts(f, math.MaxInt8)
	f.Fuzz(func(t *testing.T, spec string, hosts int8) {
		sws, err := ParseScorers(spec, int(hosts))
		if err != nil {
			return
		}
		if hosts < 1 {
			t.Fatalf("ParseScorers(%q, %d) accepted a fleet of no hosts", spec, hosts)
		}
		r, err := NewWeightedRouter("fuzz", sws...)
		if err != nil {
			t.Fatalf("ParseScorers(%q, %d): NewWeightedRouter rejects the result: %v", spec, hosts, err)
		}
		if _, err := New(pool[:hosts], r, Config{}); err != nil {
			t.Fatalf("ParseScorers(%q, %d): cluster.New rejects the result: %v", spec, hosts, err)
		}
	})
}
