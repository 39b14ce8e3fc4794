package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sdm/internal/simclock"
)

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelOff, LevelSummary, LevelDecisions, LevelCounterfactual} {
		got, err := ParseLevel(l.String())
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", l, err)
		}
		if got != l {
			t.Fatalf("ParseLevel(%q) = %v, want %v", l, got, l)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel should reject unknown levels")
	}
	if s := Level(99).String(); s != "Level(99)" {
		t.Fatalf("unknown level renders %q", s)
	}
}

// FuzzParseLevel feeds arbitrary -trace-level values to ParseLevel. The only
// legal outcomes are an error or a level whose String() is the input, so
// parsing it again returns the same level. Seeds are the four spellings, the
// values sdmcluster's tests and this package's reject, and near misses.
func FuzzParseLevel(f *testing.F) {
	for _, s := range []string{"off", "summary", "decisions", "counterfactual", "loud", "verbose", "Level(3)", "Off", " off", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		l, err := ParseLevel(s)
		if err != nil {
			return
		}
		if l.String() != s {
			t.Fatalf("ParseLevel(%q) = %v, which renders as %q", s, l, l.String())
		}
		if again, err := ParseLevel(l.String()); err != nil || again != l {
			t.Fatalf("ParseLevel(%q) = %v, but ParseLevel(%q) = %v, %v", s, l, l.String(), again, err)
		}
	})
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Active() {
		t.Fatal("nil collector reports active")
	}
	// None of these may panic or record anything.
	c.Route(0, RouteDecision{})
	c.Admit(0, AdmitDecision{})
	c.Plan(0, PlanDecision{})
	c.Reset()
	if ev := c.Events(); ev != nil {
		t.Fatalf("nil collector returned events: %v", ev)
	}
}

func TestMergeOrdersByTimeThenHost(t *testing.T) {
	fe := NewCollector(-1)
	h0 := NewCollector(0)
	h1 := NewCollector(1)

	// Emit out of global order but in order within each collector, with a
	// tie at t=10 across all three emitters.
	fe.Route(5, RouteDecision{Seq: 0, Chosen: 1})
	fe.Route(10, RouteDecision{Seq: 1, Chosen: 0})
	h1.Plan(10, PlanDecision{Table: 7, Range: -1, Action: "promote"})
	h0.Plan(10, PlanDecision{Table: 3, Range: -1, Action: "demote"})
	h0.Plan(20, PlanDecision{Table: 4, Range: 2, Action: "defer", Reason: "busy"})

	merged := Merge(h1, h0, fe, nil)
	if len(merged) != 5 {
		t.Fatalf("merged %d events, want 5", len(merged))
	}
	type th struct {
		t simclock.Time
		h int
	}
	want := []th{{5, -1}, {10, -1}, {10, 0}, {10, 1}, {20, 0}}
	for i, ev := range merged {
		if ev.Time != want[i].t || ev.Host != want[i].h {
			t.Fatalf("merged[%d] = (t=%v host=%d), want (t=%v host=%d)",
				i, ev.Time, ev.Host, want[i].t, want[i].h)
		}
	}
}

// traceFixture is a small merged stream exercising every kind and
// outcome Summarize distinguishes.
func traceFixture() []Event {
	fe := NewCollector(-1)
	fe.Admit(1, AdmitDecision{Class: 0, Outcome: "admit", Tokens: 3})
	fe.Admit(2, AdmitDecision{Class: 1, Outcome: "shed", Tokens: 0})
	fe.Admit(3, AdmitDecision{Class: 1, Outcome: "delay", Tokens: 0.5, DelaySeconds: 0.001})
	fe.Route(4, RouteDecision{
		Seq: 0, User: 42, Prev: 1, Chosen: 0, Score: 1.9, Diverted: true,
		Parts: []ScorePart{{Scorer: "affinity", Weight: 1, Score: 0}, {Scorer: "queue", Weight: 0.4, Score: 1}},
		Alts:  []AltScore{{Host: 2, Score: 1.2, Gap: 0.7}},
		Counterfactuals: []Counterfactual{
			{Host: 2, EstSeconds: 0.002, RegretSeconds: 0.001},
			{Host: 1, EstSeconds: 0.004, RegretSeconds: -0.001, Prev: true},
		},
		LatencySeconds: 0.003,
	})
	fe.Route(5, RouteDecision{Seq: 1, User: 42, Prev: 0, Chosen: 0})
	h0 := NewCollector(0)
	h0.Plan(6, PlanDecision{Table: 1, Range: -1, Action: "promote", Density: 2, Bytes: 1 << 16})
	h0.Plan(6, PlanDecision{Table: 2, Range: 3, Action: "defer", Reason: "cap", Density: 1, Bytes: 1 << 16})
	h0.Plan(7, PlanDecision{Table: 0, Range: -1, Action: "demote", Density: 0.1, Bytes: 1 << 16})
	h0.Plan(8, PlanDecision{Table: 5, Range: 0, Action: "defer", Reason: "busy", Density: 3, Bytes: 1 << 16})
	return Merge(fe, h0)
}

func TestSummarize(t *testing.T) {
	s := Summarize(LevelCounterfactual, traceFixture())
	if s.Events != 9 || s.Routes != 2 || s.Diversions != 1 {
		t.Fatalf("routes: %+v", s)
	}
	if s.Admits != 2 || s.Sheds != 1 || s.Delays != 1 {
		t.Fatalf("admits: %+v", s)
	}
	if s.Promotes != 1 || s.Demotes != 1 || s.Defers != 2 || s.DeferBusy != 1 || s.DeferCap != 1 {
		t.Fatalf("plans: %+v", s)
	}
	// One runner-up row (host 2 == Alts[0]) and one prev row.
	if s.CFRows != 1 || s.RegretRunnerUpSeconds != 0.001 {
		t.Fatalf("runner-up regret: %+v", s)
	}
	if s.DivertedCFRows != 1 || s.RegretPrevSeconds != -0.001 {
		t.Fatalf("prev regret: %+v", s)
	}
	if got := s.DiversionRate(); got != 0.5 {
		t.Fatalf("diversion rate %v, want 0.5", got)
	}
	if (Summary{}).DiversionRate() != 0 {
		t.Fatal("empty summary diversion rate should be 0")
	}
	if str := s.String(); !strings.Contains(str, "routes=2") || !strings.Contains(str, "counterfactual") {
		t.Fatalf("summary string %q", str)
	}
}

func TestWriteJSONL(t *testing.T) {
	events := traceFixture()
	sum := Summarize(LevelCounterfactual, events)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, LevelCounterfactual, events, sum); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(events)+1 {
		t.Fatalf("%d lines, want %d events + 1 summary", len(lines), len(events))
	}
	// Every event line round-trips and the final line is the summary with
	// matching counts.
	for i, ln := range lines[:len(events)] {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ev.Kind != events[i].Kind || ev.Time != events[i].Time || ev.Host != events[i].Host {
			t.Fatalf("line %d round-tripped to %+v, want %+v", i+1, ev, events[i])
		}
	}
	var tail struct {
		Kind    string   `json:"kind"`
		Summary *Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatal(err)
	}
	if tail.Kind != "summary" || tail.Summary == nil || tail.Summary.Events != sum.Events {
		t.Fatalf("trailing summary %+v", tail)
	}

	// At LevelSummary only the summary line is written.
	buf.Reset()
	if err := WriteJSONL(&buf, LevelSummary, events, sum); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Fatalf("summary-level render has %d lines, want 1", got)
	}

	// Identical inputs render byte-identically.
	var again bytes.Buffer
	if err := WriteJSONL(&again, LevelCounterfactual, events, sum); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteJSONL(&first, LevelCounterfactual, events, sum); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("two renders of the same trace differ")
	}
}
