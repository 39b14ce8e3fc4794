// Package sdmcheck holds the files the fleet writes to their schemas: a
// decision trace (Fleet.WriteTrace, sdmcluster -trace) and a metrics export
// in either format (Fleet.WriteMetrics / WriteMetricsJSONL, sdmcluster
// -metrics). It reads the files as text and does not import the packages
// that write them, so a change to a writer's schema fails here instead of
// being read back by the same code.
package sdmcheck

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// File checks one file and returns what it holds, for an `ok (...)` line.
// The first line tells the formats apart: OpenMetrics text does not start
// with '{', a metrics JSONL row has a "family", and anything else is read
// as a trace.
func File(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	var probe struct {
		Family *string `json:"family"`
	}
	switch {
	case !bytes.HasPrefix(first, []byte("{")):
		n, err := OpenMetrics(data)
		return fmt.Sprintf("%d samples", n), err
	case json.Unmarshal(first, &probe) == nil && probe.Family != nil:
		n, err := MetricsJSONL(data)
		return fmt.Sprintf("%d samples", n), err
	}
	s, err := Trace(data)
	return fmt.Sprintf("%d events: %d route, %d admit, %d plan; level %s",
		s.Events, s.Routes, s.Admits+s.Sheds, s.Promotes+s.Demotes+s.Defers, s.Level), err
}

// eachLine calls fn on every line of data in order and prefixes the first
// error fn returns with its line number, counted from 1.
func eachLine(data []byte, fn func(line []byte) error) error {
	for n := 1; len(data) > 0; n++ {
		line, rest, _ := bytes.Cut(data, []byte("\n"))
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		data = rest
	}
	return nil
}

// series holds the last sample of each series, by key.
type series map[string]point

type point struct {
	t int64
	v float64
}

// add is the one rule every stream follows per series: timestamps never
// regress, and a counter never drops.
func (s series) add(key string, t int64, v float64, counter bool) error {
	if last, ok := s[key]; ok {
		if t < last.t {
			return fmt.Errorf("%s: timestamp %d regressed below %d", key, t, last.t)
		}
		if counter && v < last.v {
			return fmt.Errorf("%s: counter dropped from %g to %g", key, last.v, v)
		}
	}
	s[key] = point{t, v}
	return nil
}

// TraceSummary is a trace's summary line: its level and the counts of its
// decisions. Events counts the event lines; Admits counts admitted queries,
// delayed ones included, and Delays the delayed ones alone.
type TraceSummary struct {
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

// event is one trace line. Payloads stay generic maps: the checker asks for
// the fields each kind requires, not for the writer's types.
type event struct {
	Kind    string         `json:"kind"`
	Time    *int64         `json:"t"`
	Host    *int           `json:"host"`
	Route   map[string]any `json:"route"`
	Admit   map[string]any `json:"admit"`
	Plan    map[string]any `json:"plan"`
	Summary *TraceSummary  `json:"summary"`
}

// Trace checks a decision trace and returns its summary. Every line is an
// event of a known kind with the payload fields that kind requires, in
// virtual-time order, and the last line is the one summary line. When the
// trace has event lines (level decisions and above), every count in the
// summary must equal the count of its events.
func Trace(data []byte) (TraceSummary, error) {
	var got TraceSummary
	var sum *TraceSummary
	times := series{}
	err := eachLine(data, func(line []byte) error {
		if sum != nil {
			return errors.New("content after the summary line")
		}
		var e event
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		var payload map[string]any
		var fields []string
		switch e.Kind {
		case "summary":
			if e.Summary == nil {
				return errors.New("summary line without summary payload")
			}
			sum = e.Summary
			return nil
		case "route":
			payload, fields = e.Route, []string{"i", "user", "class", "prev", "chosen"}
		case "admit":
			payload, fields = e.Admit, []string{"class", "outcome", "tokens"}
		case "plan":
			payload, fields = e.Plan, []string{"table", "range", "action", "density", "bytes"}
		default:
			return fmt.Errorf("unknown kind %q", e.Kind)
		}
		if e.Time == nil || e.Host == nil {
			return fmt.Errorf("%s event missing t/host", e.Kind)
		}
		if err := times.add("event", *e.Time, 0, false); err != nil {
			return err
		}
		for _, f := range fields {
			if _, ok := payload[f]; !ok {
				return fmt.Errorf("%s: missing field %q", e.Kind, f)
			}
		}
		got.Events++
		switch e.Kind {
		case "route":
			got.Routes++
			if payload["div"] == true {
				got.Diversions++
			}
		case "admit":
			switch payload["outcome"] {
			case "admit":
				got.Admits++
			case "delay":
				got.Admits++
				got.Delays++
			case "shed":
				got.Sheds++
			default:
				return fmt.Errorf("admit outcome %v", payload["outcome"])
			}
		case "plan":
			switch payload["action"] {
			case "promote":
				got.Promotes++
			case "demote":
				got.Demotes++
			case "defer":
				got.Defers++
			default:
				return fmt.Errorf("plan action %v", payload["action"])
			}
		}
		return nil
	})
	if err != nil {
		return TraceSummary{}, err
	}
	if sum == nil {
		return TraceSummary{}, fmt.Errorf("no summary line (got %d events)", got.Events)
	}
	// A summary-level trace has counts but no event lines.
	if got.Level = sum.Level; got.Events > 0 && got != *sum {
		return TraceSummary{}, fmt.Errorf("summary %+v but the events count %+v", *sum, got)
	}
	return *sum, nil
}

// sampleName is the one naming rule of both metrics formats: a counter's
// samples are family_total and a gauge's are family.
func sampleName(family, kind string) (string, error) {
	switch kind {
	case "counter":
		return family + "_total", nil
	case "gauge":
		return family, nil
	}
	return "", fmt.Errorf("unknown metric kind %q", kind)
}

// OpenMetrics checks an OpenMetrics text export and returns its sample
// count. Every sample follows a # TYPE line (counter or gauge) whose
// family it is named for, carries a value and a timestamp in seconds with
// nine fractional digits, and keeps its series' order; the stream ends
// with one # EOF.
func OpenMetrics(data []byte) (int, error) {
	kinds := map[string]string{}   // family -> kind
	samples := map[string]string{} // sample name -> kind
	last := series{}
	n, eof := 0, false
	err := eachLine(data, func(b []byte) error {
		line := string(b)
		switch {
		case eof:
			return errors.New("content after # EOF")
		case line == "# EOF":
			eof = true
			return nil
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# UNIT "):
			return nil
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("malformed TYPE line %q", line)
			}
			name, err := sampleName(f[2], f[3])
			if err != nil {
				return fmt.Errorf("malformed TYPE line %q: %v", line, err)
			}
			if prev, ok := kinds[f[2]]; ok && prev != f[3] {
				return fmt.Errorf("family %s re-declared as %s (was %s)", f[2], f[3], prev)
			}
			kinds[f[2]], samples[name] = f[3], f[3]
			return nil
		case strings.HasPrefix(line, "#"):
			return fmt.Errorf("unknown comment %q", line)
		}
		// name{labels} value timestamp; label values may hold spaces.
		key, rest := line, ""
		if i := strings.IndexByte(line, '}'); i >= 0 {
			key, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			key, rest = line[:i], line[i:]
		}
		name, _, _ := strings.Cut(key, "{")
		kind, ok := samples[name]
		if !ok {
			return fmt.Errorf("sample %s has no preceding # TYPE", name)
		}
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return fmt.Errorf("want 'value timestamp', got %q", rest)
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return fmt.Errorf("bad value %q: %v", parts[0], err)
		}
		t, err := parseTimestamp(parts[1])
		if err != nil {
			return err
		}
		n++
		return last.add(key, t, v, kind == "counter")
	})
	switch {
	case err != nil:
		return 0, err
	case !eof:
		return 0, errors.New("missing # EOF terminator")
	case n == 0:
		return 0, errors.New("no samples")
	}
	return n, nil
}

// parseTimestamp reads the writer's seconds.nanoseconds rendering back
// into virtual nanoseconds.
func parseTimestamp(s string) (int64, error) {
	abs := strings.TrimPrefix(s, "-")
	sec, frac, ok := strings.Cut(abs, ".")
	if !ok || len(frac) != 9 {
		return 0, fmt.Errorf("bad timestamp %q: want seconds with a 9-digit nanosecond fraction", s)
	}
	ns, err := strconv.ParseInt(sec+frac, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q: %v", s, err)
	}
	if abs != s {
		ns = -ns
	}
	return ns, nil
}

// row is one metrics JSONL line. Host -1 is the fleet's front-end.
type row struct {
	Family string            `json:"family"`
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Host   *int              `json:"host"`
	Labels map[string]string `json:"labels"`
	TNs    *int64            `json:"t_ns"`
	Value  *json.Number      `json:"value"`
}

// MetricsJSONL checks a metrics JSONL export and returns its sample count:
// every row names a family, a kind (counter or gauge) and the sample name
// that kind gives the family, a host, a timestamp and a value, and keeps
// its series' order.
func MetricsJSONL(data []byte) (int, error) {
	last := series{}
	n := 0
	err := eachLine(data, func(line []byte) error {
		var r row
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Family == "" || r.Name == "" {
			return errors.New("missing family/name")
		}
		name, err := sampleName(r.Family, r.Kind)
		if err != nil {
			return err
		}
		if r.Name != name {
			return fmt.Errorf("name %q is not family %q's %s sample %q", r.Name, r.Family, r.Kind, name)
		}
		if r.Host == nil || r.TNs == nil || r.Value == nil {
			return errors.New("missing host/t_ns/value")
		}
		if *r.Host < -1 {
			return fmt.Errorf("bad host %d", *r.Host)
		}
		v, err := r.Value.Float64()
		if err != nil {
			return fmt.Errorf("bad value %q: %v", *r.Value, err)
		}
		n++
		// fmt prints a map's keys in sorted order, so the key is canonical.
		return last.add(fmt.Sprintf("%s host=%d %v", r.Name, *r.Host, r.Labels), *r.TNs, v, r.Kind == "counter")
	})
	switch {
	case err != nil:
		return 0, err
	case n == 0:
		return 0, errors.New("no samples")
	}
	return n, nil
}
