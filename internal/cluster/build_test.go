package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sdm/internal/adapt"
	"sdm/internal/embedding"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/workload"
)

// handBuild assembles s setter by setter, the way fleets were wired before
// Build, with the planes installed in the reverse of Build's order:
// generator, metrics, trace and admission first, adapters and coordinator
// last.
func handBuild(t *testing.T, in *model.Instance, tables []*embedding.Table, s Spec) *Fleet {
	t.Helper()
	hosts, err := HostSet(in, tables, s.Hosts, s.Store, s.Host)
	if err != nil {
		t.Fatal(err)
	}
	var adapters []*adapt.Adapter
	var coord *Coordinator
	switch {
	case s.Coord != nil:
		adapters, coord, err = AttachCoordinated(hosts, *s.Adapt, *s.Coord)
	case s.Adapt != nil:
		adapters, err = AttachAdaptive(hosts, *s.Adapt)
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(hosts, s.Router, s.Fleet)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	if s.Metrics != nil {
		if err := f.SetMetrics(*s.Metrics); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.SetTrace(s.Trace); err != nil {
		t.Fatal(err)
	}
	if s.Admit != nil {
		if err := f.SetAdmission(*s.Admit); err != nil {
			t.Fatal(err)
		}
	}
	f.SetAdapters(adapters)
	f.SetCoordinator(coord)
	return f
}

// TestBuildMatchesSetters holds Build to the hand-wired sequence it
// replaces: the same Result, adapter counters, trace and metrics bytes on
// the golden run (weighted routing, admission, coordinated range
// adaptation, a drift and a failure drill) and on a coordinated
// range-adaptive sticky fleet traced at the counterfactual level with
// metrics on. Build rejects a Spec without hosts or router, or with Coord
// but no Adapt, naming the field.
func TestBuildMatchesSetters(t *testing.T) {
	in, tables := adaptiveFixture(t)
	for _, c := range []struct {
		name string
		spec func() Spec
		run  func(f *Fleet) (*Result, error)
	}{
		{"golden", func() Spec { return sloSpec(t, 3, 2) }, func(f *Fleet) (*Result, error) {
			if _, err := f.Run(300, 600); err != nil {
				return nil, err
			}
			if err := f.ScheduleDrift(0.3); err != nil {
				return nil, err
			}
			if err := f.ScheduleFailure(1, 0.5); err != nil {
				return nil, err
			}
			return f.Run(600, 900)
		}},
		{"traced-metered", func() Spec {
			s := sloSpec(t, 3, 4)
			s.Router, s.Admit = NewSticky(3, 64), nil
			s.Trace = obs.Config{Level: obs.LevelCounterfactual}
			s.Metrics = &MetricsConfig{}
			return s
		}, func(f *Fleet) (*Result, error) {
			if _, err := f.Run(300, 600); err != nil {
				return nil, err
			}
			if err := f.ScheduleDrift(0.5); err != nil {
				return nil, err
			}
			return f.Run(300, 900)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var outs []string
			for _, build := range []func(Spec) (*Fleet, error){
				func(s Spec) (*Fleet, error) { return handBuild(t, in, tables, s), nil },
				func(s Spec) (*Fleet, error) { return Build(in, tables, s) },
			} {
				s := c.spec()
				f, err := build(s)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.run(f)
				if err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				fmt.Fprintf(&b, "%#x %v\n", resultDigest(res), AdapterStats(f.Adapters()))
				if s.Trace.Level != obs.LevelOff {
					if len(f.TraceEvents()) == 0 {
						t.Fatal("traced run recorded no events")
					}
					if err := f.WriteTrace(&b); err != nil {
						t.Fatal(err)
					}
				}
				if s.Metrics != nil {
					if err := f.WriteMetrics(&b); err != nil {
						t.Fatal(err)
					}
					if err := f.WriteMetricsJSONL(&b); err != nil {
						t.Fatal(err)
					}
				}
				outs = append(outs, b.String())
			}
			if outs[0] != outs[1] {
				t.Fatalf("Build differs from the setters:\n%.300s\nvs\n%.300s", outs[1], outs[0])
			}
		})
	}

	for _, c := range []struct {
		field string
		edit  func(*Spec)
	}{
		{"Hosts", func(s *Spec) { s.Hosts = 0 }},
		{"Hosts", func(s *Spec) { s.Hosts = -1 }},
		{"Router", func(s *Spec) { s.Router = nil }},
		{"Coord", func(s *Spec) { s.Adapt = nil }},
	} {
		s := sloSpec(t, 3, 1)
		c.edit(&s)
		if _, err := Build(in, tables, s); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Build with a bad %s: error %v, want one naming it", c.field, err)
		}
	}
}
