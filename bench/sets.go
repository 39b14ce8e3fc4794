package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchFile is BENCHMARK.json at the repository root: the contract the
// driver checks and the bounds -compare and -calibrate apply.
const benchFile = "BENCHMARK.json"

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bs, nil
}

// sets is the -out file: for every workload and metric, one value per set
// (a plain run is one set, -calibrate N is N), plus each set's seed and
// sim_digest so -compare can tell whether two files ran the same inputs.
type sets struct {
	Seeds     []uint64                        `json:"seeds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
	Digests   map[string][]string             `json:"digests"`
}

func (s *sets) add(seed uint64, reps []*report) {
	if s.Workloads == nil {
		s.Workloads = map[string]map[string][]float64{}
		s.Digests = map[string][]string{}
	}
	s.Seeds = append(s.Seeds, seed)
	for _, rep := range reps {
		m := s.Workloads[rep.workload]
		if m == nil {
			m = map[string][]float64{}
			s.Workloads[rep.workload] = m
		}
		for _, x := range rep.metrics {
			m[x.name] = append(m[x.name], x.value)
		}
		if rep.digest != 0 && !rep.traced {
			s.Digests[rep.workload] = append(s.Digests[rep.workload], fmt.Sprintf("%016x", rep.digest))
		}
	}
}

func (s *sets) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSets(path string, seed uint64, reps []*report) error {
	var s sets
	s.add(seed, reps)
	return s.write(path)
}

func readSets(path string) (*sets, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s sets
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// calibrateSets runs n sets, set i on seed+i as the driver's acceptance
// protocol does, and prints every end-to-end metric's spread (interquartile
// range over median) beside its bound.
func calibrateSets(w io.Writer, opt options, only string, n int, out string) error {
	bs, err := loadBenchSpec(benchFile)
	if err != nil {
		return err
	}
	var all sets
	for i := 0; i < n; i++ {
		o := opt
		o.seed = opt.seed + uint64(i)
		var reps []*report
		for _, s := range specs {
			if only != "" && s.name != only {
				continue
			}
			rep, err := runOne(s, o)
			if err != nil {
				return err
			}
			if rep.failed > 0 {
				printReport(w, rep)
			}
			reps = append(reps, rep)
		}
		all.add(o.seed, reps)
		fmt.Fprintf(w, "# set %d of %d done (seed %d)\n", i+1, n, o.seed)
	}
	if err := all.write(out); err != nil {
		return err
	}
	list := bs.EndToEnd
	if opt.trace {
		list = bs.PerLayer
	}
	fmt.Fprintf(w, "%-20s %-28s %12s %9s %7s  %s\n", "workload", "metric", "median", "spread%", "bound%", "verdict")
	for _, s := range specs {
		ms := all.Workloads[s.name]
		for _, bm := range list {
			vs := ms[bm.Name]
			if len(vs) == 0 {
				continue
			}
			sp := spread(vs)
			verdict := "ok"
			switch {
			case bm.Bound == 0:
				verdict = "-"
			case sp > bm.Bound:
				verdict = "SPREAD>BOUND"
			case sp > bm.Bound/3:
				verdict = "spread>bound/3"
			}
			fmt.Fprintf(w, "%-20s %-28s %12.6g %9.2f %7.1f  %s\n", s.name, bm.Name, median(vs), 100*sp, 100*bm.Bound, verdict)
		}
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two -out files: b may not
// be worse than a by more than the bound, as a share of a's median. When
// both files ran the same seeds, every sim_* metric and the sim_digest must
// be equal, since the simulator is deterministic. A metric whose own spread
// exceeds its bound is unresolved rather than unchanged.
func compareFiles(w io.Writer, pathA, pathB string) error {
	bs, err := loadBenchSpec(benchFile)
	if err != nil {
		return err
	}
	a, err := readSets(pathA)
	if err != nil {
		return err
	}
	b, err := readSets(pathB)
	if err != nil {
		return err
	}
	sameSeeds := fmt.Sprint(a.Seeds) == fmt.Sprint(b.Seeds)
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(w, "%-20s %-28s %12s %12s %8s %7s  %s\n", "workload", "metric", "a", "b", "worse%", "bound%", "verdict")
	for _, name := range names {
		if sameSeeds && fmt.Sprint(a.Digests[name]) != fmt.Sprint(b.Digests[name]) {
			fmt.Fprintf(w, "%-20s sim_digest differs on equal seeds: %v vs %v\n", name, a.Digests[name], b.Digests[name])
			bad++
		}
		for _, bm := range bs.EndToEnd {
			va, vb := a.Workloads[name][bm.Name], b.Workloads[name][bm.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := per(mb-ma, ma)
			if bm.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			exact := sameSeeds && strings.HasPrefix(bm.Name, "sim_")
			switch {
			case exact && fmt.Sprint(va) != fmt.Sprint(vb):
				verdict = "SIM-CHANGED"
				bad++
			case exact:
			case spread(va) > bm.Bound || spread(vb) > bm.Bound:
				verdict = "unresolved"
			case worse > bm.Bound:
				verdict = "REGRESSED"
				bad++
			}
			fmt.Fprintf(w, "%-20s %-28s %12.6g %12.6g %8.2f %7.1f  %s\n", name, bm.Name, ma, mb, 100*worse, 100*bm.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics outside their bounds", bad)
	}
	return nil
}
