// Package obs is the fleet's decision-trace subsystem: a structured,
// deterministic record of *why* each serving-layer decision went the way
// it did — the router's per-scorer scores and the top-k rejected
// alternatives, admission control's bucket level and shed/queue verdict,
// and the placement policy's promote/demote/defer call with the
// telemetry snapshot that justified it. Collection is nil-safe and off
// by default (a nil *Collector costs nothing); when enabled, every
// emitter appends to its own Collector and the fleet merges the streams
// in virtual-time order after the run, so traces are bit-identical at
// any HostWorkers setting — the same discipline that makes
// the results themselves replayable, now applied to the reasoning.
//
// A counterfactual pass (LevelCounterfactual) re-scores each routing
// decision's rejected alternatives at completion time against a per-host
// latency estimate, so every trace row carries "what the runner-up would
// have cost" — the substrate the offline scorer-weight search replays.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"sdm/internal/simclock"
)

// Level selects how much of the decision stream is collected and
// rendered. Off disables collection entirely (the zero-overhead path);
// Summary collects decisions but renders only the aggregate line;
// Decisions renders every decision row; Counterfactual additionally
// re-scores each route decision's rejected alternatives at completion
// time.
type Level int

// Trace levels, in increasing verbosity.
const (
	LevelOff Level = iota
	LevelSummary
	LevelDecisions
	LevelCounterfactual
)

// String returns the level's flag spelling.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelSummary:
		return "summary"
	case LevelDecisions:
		return "decisions"
	case LevelCounterfactual:
		return "counterfactual"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// ParseLevel parses a -trace-level flag value.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off":
		return LevelOff, nil
	case "summary":
		return LevelSummary, nil
	case "decisions":
		return LevelDecisions, nil
	case "counterfactual":
		return LevelCounterfactual, nil
	default:
		return LevelOff, fmt.Errorf("obs: unknown trace level %q (off, summary, decisions, counterfactual)", s)
	}
}

// Config tunes a fleet's tracing.
type Config struct {
	// Level selects collection and rendering depth; LevelOff disables
	// tracing entirely.
	Level Level
	// CounterfactualK bounds how many rejected route alternatives each
	// decision records (and, at LevelCounterfactual, re-scores). 0
	// selects min(2, hosts-1); values above hosts-1 are rejected, not
	// clamped.
	CounterfactualK int
}

// ScorePart is one scorer's contribution to the chosen host's score.
type ScorePart struct {
	Scorer string  `json:"scorer"`
	Weight float64 `json:"weight"`
	Score  float64 `json:"score"`
}

// AltScore is one rejected routing alternative: an alive host the router
// scored but did not pick, with its gap to the winner.
type AltScore struct {
	Host  int     `json:"host"`
	Score float64 `json:"score"`
	// Gap is the winner's score minus this host's (>= 0).
	Gap float64 `json:"gap"`
	// Outstanding is the host's in-flight query count at decision time.
	Outstanding int `json:"out"`
}

// Counterfactual is one completion-time re-scoring of a rejected
// alternative: what routing this query to Host would likely have cost,
// estimated from the host's recent completed latencies.
type Counterfactual struct {
	Host int `json:"host"`
	// EstSeconds is the host's latency estimate (EWMA of its completed
	// queries, in arrival order) at this decision.
	EstSeconds float64 `json:"est_s"`
	// RegretSeconds is actual minus estimate: positive means the chosen
	// host was slower than this alternative's estimate.
	RegretSeconds float64 `json:"regret_s"`
	// Prev marks the row that re-scores the user's previous (sticky)
	// host on a diverted decision.
	Prev bool `json:"prev,omitempty"`
}

// RouteDecision records one routing decision.
type RouteDecision struct {
	// Seq is the query's arrival index within the Run.
	Seq   int   `json:"i"`
	User  int64 `json:"user"`
	Class int   `json:"class"`
	// Prev is the user's previous host (-1 first-seen).
	Prev   int `json:"prev"`
	Chosen int `json:"chosen"`
	// Score is the chosen host's weighted score (0 for score-free
	// routers).
	Score float64 `json:"score"`
	// Outstanding is the chosen host's in-flight count at decision time.
	Outstanding int `json:"out"`
	// Diverted marks a decision that moved the user off an alive
	// previous host — affinity lost to other signals.
	Diverted bool `json:"div,omitempty"`
	// Parts decomposes the chosen host's score per scorer (weighted
	// routers only).
	Parts []ScorePart `json:"parts,omitempty"`
	// Alts are the top-k rejected alternatives by score (weighted
	// routers only).
	Alts []AltScore `json:"alts,omitempty"`
	// LatencySeconds is the query's completed latency, filled by the
	// counterfactual pass (0 until then, or for shed/unfinished rows).
	LatencySeconds float64 `json:"lat_s,omitempty"`
	// Counterfactuals re-score the alternatives at completion time
	// (LevelCounterfactual only).
	Counterfactuals []Counterfactual `json:"cf,omitempty"`
}

// AdmitDecision records one admission-control decision.
type AdmitDecision struct {
	Class int `json:"class"`
	// Outcome is "admit", "shed", or "delay" (queue-mode late
	// admission).
	Outcome string `json:"outcome"`
	// Tokens is the class bucket's level after accrual and before this
	// query's charge; -1 when the class has no bucket.
	Tokens float64 `json:"tokens"`
	// DelaySeconds is the queue-mode admission delay (0 otherwise).
	DelaySeconds float64 `json:"delay_s,omitempty"`
}

// PlanDecision records one placement-policy verdict: what one evaluation
// decided about one candidate (a whole table or a row range), with the
// telemetry that justified it.
type PlanDecision struct {
	Table int `json:"table"`
	// Range is the row-range index, or -1 for a whole-table candidate.
	Range int64 `json:"range"`
	// Action is "promote", "demote", or "defer" (wanted but not moved).
	Action string `json:"action"`
	// Reason qualifies a defer: "busy" (a pending move covers it) or
	// "cap" (the per-eval migration cap truncated it).
	Reason string `json:"reason,omitempty"`
	// Density is the candidate's demand density as scored (incumbents
	// already carry the hysteresis advantage).
	Density float64 `json:"density"`
	Bytes   int64   `json:"bytes"`
	// DemoteBytes is the challenger's implied demote-write cost (0 for
	// incumbents).
	DemoteBytes int64 `json:"demote_bytes,omitempty"`
	// Hysteresis is the incumbent advantage factor applied to Density
	// (0 for challengers).
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// WearWindowBytes/WearSpentBytes snapshot the wear budget the
	// evaluation packed against (0 when wear awareness is off).
	WearWindowBytes int64 `json:"wear_window_bytes,omitempty"`
	WearSpentBytes  int64 `json:"wear_spent_bytes,omitempty"`
}

// Event is one decision in the merged trace stream.
type Event struct {
	// Kind is "route", "admit", or "plan".
	Kind string `json:"kind"`
	// Time is the decision's virtual time.
	Time simclock.Time `json:"t"`
	// Host is the deciding agent: -1 for the front-end (route/admit),
	// the host id for per-host plan decisions.
	Host int `json:"host"`

	Route *RouteDecision `json:"route,omitempty"`
	Admit *AdmitDecision `json:"admit,omitempty"`
	Plan  *PlanDecision  `json:"plan,omitempty"`
}

// Collector accumulates one emitter's decision stream in emission order.
// A nil Collector is valid and collects nothing — the zero-overhead
// disabled path. Collectors are not safe for concurrent use; the fleet
// gives each emitter (the front-end, each host's adapter) its own.
type Collector struct {
	host   int
	events []Event
}

// NewCollector returns a collector attributing its events to host (-1
// for the front-end).
func NewCollector(host int) *Collector { return &Collector{host: host} }

// Reset drops collected events (Run boundaries).
func (c *Collector) Reset() {
	if c != nil {
		c.events = c.events[:0]
	}
}

// Route records a routing decision at virtual time t.
func (c *Collector) Route(t simclock.Time, d RouteDecision) {
	if c == nil {
		return
	}
	rd := d
	c.events = append(c.events, Event{Kind: "route", Time: t, Host: c.host, Route: &rd})
}

// Admit records an admission decision at virtual time t.
func (c *Collector) Admit(t simclock.Time, d AdmitDecision) {
	if c == nil {
		return
	}
	ad := d
	c.events = append(c.events, Event{Kind: "admit", Time: t, Host: c.host, Admit: &ad})
}

// Plan records a placement verdict at virtual time t.
func (c *Collector) Plan(t simclock.Time, d PlanDecision) {
	if c == nil {
		return
	}
	pd := d
	c.events = append(c.events, Event{Kind: "plan", Time: t, Host: c.host, Plan: &pd})
}

// Events returns the collected stream in emission order. The slice (and
// the pointed-to decisions) are shared with the collector — callers may
// enrich rows in place (the counterfactual pass does) but must not
// reorder them.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	return c.events
}

// Merge folds per-emitter streams into one virtual-time-ordered trace:
// sorted by (Time, Host), stable within, so ties preserve each
// collector's deterministic emission order. Because every collector's
// own order is independent of execution interleaving, the merged trace
// is bit-identical at any worker count.
func Merge(collectors ...*Collector) []Event {
	var out []Event
	for _, c := range collectors {
		if c != nil {
			out = append(out, c.events...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// Summary aggregates one trace: decision counts by kind and outcome,
// the routing diversion rate, defer reasons, and (at
// LevelCounterfactual) the regret aggregates the slo drill asserts on.
type Summary struct {
	Level  string `json:"level"`
	Events int    `json:"events"`

	// Routing.
	Routes     int `json:"routes"`
	Diversions int `json:"diversions"`

	// Admission (counted over queries that faced a bucket decision).
	Admits int `json:"admits"`
	Sheds  int `json:"sheds"`
	Delays int `json:"delays"`

	// Placement.
	Promotes  int `json:"promotes"`
	Demotes   int `json:"demotes"`
	Defers    int `json:"defers"`
	DeferBusy int `json:"defer_busy"`
	DeferCap  int `json:"defer_cap"`

	// Counterfactual regret vs the runner-up alternative, summed over
	// every decision whose runner-up had a latency estimate.
	CFRows                int     `json:"cf_rows"`
	RegretRunnerUpSeconds float64 `json:"regret_runner_up_s"`
	// Counterfactual regret vs the user's previous (sticky) host,
	// summed over diverted decisions: negative means diverting beat
	// staying.
	DivertedCFRows    int     `json:"diverted_cf_rows"`
	RegretPrevSeconds float64 `json:"regret_prev_s"`
}

// DiversionRate returns the diverted fraction of routing decisions.
func (s Summary) DiversionRate() float64 {
	if s.Routes == 0 {
		return 0
	}
	return float64(s.Diversions) / float64(s.Routes)
}

// String renders the headline counts.
func (s Summary) String() string {
	return fmt.Sprintf("trace[%s]: events=%d routes=%d div=%d admits=%d sheds=%d delays=%d plan=+%d/-%d defer=%d",
		s.Level, s.Events, s.Routes, s.Diversions, s.Admits, s.Sheds, s.Delays,
		s.Promotes, s.Demotes, s.Defers)
}

// Summarize folds a merged trace into its Summary.
func Summarize(level Level, events []Event) Summary {
	s := Summary{Level: level.String(), Events: len(events)}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case "route":
			d := ev.Route
			s.Routes++
			if d.Diverted {
				s.Diversions++
			}
			for _, cf := range d.Counterfactuals {
				if len(d.Alts) > 0 && cf.Host == d.Alts[0].Host {
					s.CFRows++
					s.RegretRunnerUpSeconds += cf.RegretSeconds
				}
				if cf.Prev {
					s.DivertedCFRows++
					s.RegretPrevSeconds += cf.RegretSeconds
				}
			}
		case "admit":
			switch ev.Admit.Outcome {
			case "admit":
				s.Admits++
			case "shed":
				s.Sheds++
			case "delay":
				s.Admits++
				s.Delays++
			}
		case "plan":
			switch ev.Plan.Action {
			case "promote":
				s.Promotes++
			case "demote":
				s.Demotes++
			case "defer":
				s.Defers++
				switch ev.Plan.Reason {
				case "busy":
					s.DeferBusy++
				case "cap":
					s.DeferCap++
				}
			}
		}
	}
	return s
}

// summaryLine is the trailing JSONL record.
type summaryLine struct {
	Kind    string   `json:"kind"`
	Summary *Summary `json:"summary"`
}

// WriteJSONL renders a trace as JSON Lines: one object per decision
// (levels >= LevelDecisions) followed by a single summary line. At
// LevelSummary only the summary line is written. Field order is fixed by
// the struct declarations and Go's deterministic float formatting, so
// two identical traces render byte-identically.
func WriteJSONL(w io.Writer, level Level, events []Event, sum Summary) error {
	bw := bufio.NewWriter(w)
	if level >= LevelDecisions {
		for i := range events {
			b, err := json.Marshal(&events[i])
			if err != nil {
				return err
			}
			if _, err := bw.Write(b); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	b, err := json.Marshal(summaryLine{Kind: "summary", Summary: &sum})
	if err != nil {
		return err
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	return bw.Flush()
}
