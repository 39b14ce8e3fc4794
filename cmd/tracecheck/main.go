// Command tracecheck validates the JSONL schema of a decision trace
// written by sdmcluster -trace (or cluster.Fleet.WriteTrace): every line
// must be a well-formed event of a known kind carrying the payload its
// kind requires, and the file must end with exactly one summary line
// whose counts match the events above it. CI smoke-runs it so the trace
// format stays machine-readable without a jq dependency.
//
// Usage:
//
//	tracecheck trace.jsonl [more.jsonl ...]
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

// run checks each file in turn and returns the process exit code: 2 for a
// usage error, 1 at the first file that fails (its error goes to stderr).
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: tracecheck <trace.jsonl> [...]")
		return 2
	}
	for _, path := range args {
		if err := check(path); err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			return 1
		}
	}
	return 0
}

// line mirrors the obs JSONL schema loosely: payloads stay raw so the
// checker validates presence and field types without importing obs (the
// point is to catch schema drift between writer and reader).
type line struct {
	Kind  string           `json:"kind"`
	Time  *int64           `json:"t"`
	Host  *int             `json:"host"`
	Route map[string]any   `json:"route"`
	Admit map[string]any   `json:"admit"`
	Plan  map[string]any   `json:"plan"`
	Sum   *json.RawMessage `json:"summary"`
}

type summary struct {
	Level      string `json:"level"`
	Events     int    `json:"events"`
	Routes     int    `json:"routes"`
	Diversions int    `json:"diversions"`
	Admits     int    `json:"admits"`
	Sheds      int    `json:"sheds"`
	Delays     int    `json:"delays"`
	Promotes   int    `json:"promotes"`
	Demotes    int    `json:"demotes"`
	Defers     int    `json:"defers"`
}

func check(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		n                    int
		routes, admits, plan int
		sheds, admitted      int
		proms, dems, defs    int
		sum                  *summary
		lastT                int64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		n++
		if sum != nil {
			return fmt.Errorf("line %d: content after the summary line", n)
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("line %d: %v", n, err)
		}
		switch l.Kind {
		case "route", "admit", "plan":
			if l.Time == nil || l.Host == nil {
				return fmt.Errorf("line %d: %s event missing t/host", n, l.Kind)
			}
			if *l.Time < lastT {
				return fmt.Errorf("line %d: time %d regressed below %d — events must be virtual-time ordered", n, *l.Time, lastT)
			}
			lastT = *l.Time
		}
		switch l.Kind {
		case "route":
			routes++
			if err := need(l.Route, "i", "user", "class", "prev", "chosen"); err != nil {
				return fmt.Errorf("line %d: route: %v", n, err)
			}
		case "admit":
			admits++
			if err := need(l.Admit, "class", "outcome", "tokens"); err != nil {
				return fmt.Errorf("line %d: admit: %v", n, err)
			}
			switch l.Admit["outcome"] {
			case "admit", "delay":
				admitted++
			case "shed":
				sheds++
			default:
				return fmt.Errorf("line %d: admit outcome %v", n, l.Admit["outcome"])
			}
		case "plan":
			plan++
			if err := need(l.Plan, "table", "range", "action", "density", "bytes"); err != nil {
				return fmt.Errorf("line %d: plan: %v", n, err)
			}
			switch l.Plan["action"] {
			case "promote":
				proms++
			case "demote":
				dems++
			case "defer":
				defs++
			default:
				return fmt.Errorf("line %d: plan action %v", n, l.Plan["action"])
			}
		case "summary":
			if l.Sum == nil {
				return fmt.Errorf("line %d: summary line without summary payload", n)
			}
			var s summary
			if err := json.Unmarshal(*l.Sum, &s); err != nil {
				return fmt.Errorf("line %d: summary: %v", n, err)
			}
			sum = &s
		default:
			return fmt.Errorf("line %d: unknown kind %q", n, l.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if sum == nil {
		return fmt.Errorf("no summary line (got %d lines)", n)
	}
	// Decision-level traces must agree with their own summary; a
	// summary-level trace has counts but no event lines.
	if n > 1 {
		switch {
		case sum.Routes != routes:
			return fmt.Errorf("summary routes=%d but %d route events", sum.Routes, routes)
		case sum.Admits != admitted || sum.Sheds != sheds:
			return fmt.Errorf("summary admits=%d sheds=%d but events say %d/%d", sum.Admits, sum.Sheds, admitted, sheds)
		case sum.Promotes != proms || sum.Demotes != dems || sum.Defers != defs:
			return fmt.Errorf("summary plan=+%d/-%d/defer %d but events say +%d/-%d/defer %d",
				sum.Promotes, sum.Demotes, sum.Defers, proms, dems, defs)
		case sum.Events != routes+admits+plan:
			return fmt.Errorf("summary events=%d but %d event lines", sum.Events, routes+admits+plan)
		}
	}
	fmt.Printf("%s: ok (%d events: %d route, %d admit, %d plan; level %s)\n",
		path, routes+admits+plan, routes, admits, plan, sum.Level)
	return nil
}

// need reports the first missing key in a payload object.
func need(m map[string]any, keys ...string) error {
	if m == nil {
		return fmt.Errorf("missing payload")
	}
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return fmt.Errorf("missing field %q", k)
		}
	}
	return nil
}
