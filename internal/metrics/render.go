package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"sdm/internal/simclock"
)

// Rendering folds the sampled series of many registries into one stream.
// Families (metric names) appear in first-registration order scanning the
// registries in the order given (front-end first, then hosts 0..n-1 by
// convention); within a family every sample line is sorted by
// (virtual time, host, labels) — the obs.Merge discipline — so the bytes
// are identical at any HostWorkers setting.

// renderRow is one sample line: a mark of one emitter's series.
type renderRow struct {
	mark
	host   int
	labels []Label
	key    string // precomputed label sort key
}

// renderFamily groups all series of one metric name.
type renderFamily struct {
	name, help, unit string
	kind             Kind
	rows             []renderRow
}

// collect flattens and orders every mark of every registry.
func collect(regs []*Registry) ([]renderFamily, error) {
	var fams []renderFamily
	index := make(map[string]int)
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, in := range r.insts {
			fi, ok := index[in.desc.Name]
			if !ok {
				fi = len(fams)
				index[in.desc.Name] = fi
				fams = append(fams, renderFamily{
					name: in.desc.Name, help: in.desc.Help,
					unit: in.desc.Unit, kind: in.kind,
				})
			}
			f := &fams[fi]
			if f.kind != in.kind || f.help != in.desc.Help || f.unit != in.desc.Unit {
				return nil, fmt.Errorf("metrics: family %s registered with conflicting kind/help/unit", in.desc.Name)
			}
			key := labelString(in.desc.Labels)
			for _, m := range in.marks {
				f.rows = append(f.rows, renderRow{mark: m, host: r.host, labels: in.desc.Labels, key: key})
			}
		}
	}
	for i := range fams {
		rows := fams[i].rows
		sort.SliceStable(rows, func(a, b int) bool {
			ra, rb := &rows[a], &rows[b]
			if ra.t != rb.t {
				return ra.t < rb.t
			}
			if ra.host != rb.host {
				return ra.host < rb.host
			}
			return ra.key < rb.key
		})
	}
	return fams, nil
}

// WriteOpenMetrics renders every registry's series as OpenMetrics text:
// per family a # HELP/# TYPE (and # UNIT when set) block followed by its
// sample lines `name{host="0",...} value timestamp`, timestamps in
// seconds of virtual time at nanosecond precision, terminated by # EOF.
func WriteOpenMetrics(w io.Writer, regs []*Registry) error {
	fams, err := collect(regs)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		if f.unit != "" {
			fmt.Fprintf(bw, "# UNIT %s %s\n", f.name, f.unit)
		}
		for i := range f.rows {
			r := &f.rows[i]
			name, value := f.sample(r)
			bw.WriteString(name)
			bw.WriteString(sampleLabels(r.host, r.labels))
			bw.WriteByte(' ')
			bw.WriteString(value)
			bw.WriteByte(' ')
			bw.WriteString(formatTime(r.t))
			bw.WriteByte('\n')
		}
	}
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

// jsonRow mirrors one OpenMetrics sample line. host -1 is the front-end.
type jsonRow struct {
	Family string            `json:"family"`
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Host   int               `json:"host"`
	Labels map[string]string `json:"labels,omitempty"`
	TNs    int64             `json:"t_ns"`
	Value  json.Number       `json:"value"`
}

// WriteJSONL renders the identical sample stream as one JSON object per
// line, in the same order as WriteOpenMetrics.
func WriteJSONL(w io.Writer, regs []*Registry) error {
	fams, err := collect(regs)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range fams {
		for i := range f.rows {
			r := &f.rows[i]
			name, value := f.sample(r)
			jr := jsonRow{
				Family: f.name,
				Name:   name,
				Kind:   f.kind.String(),
				Host:   r.host,
				TNs:    int64(r.t),
				Value:  json.Number(value),
			}
			if len(r.labels) > 0 {
				jr.Labels = make(map[string]string, len(r.labels))
				for _, l := range r.labels {
					jr.Labels[l.Key] = l.Value
				}
			}
			if err := enc.Encode(&jr); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// sample returns the name and the value of one of f's sample lines: a
// counter renders as name_total with an integer value, a gauge as itself.
func (f *renderFamily) sample(r *renderRow) (name, value string) {
	if f.kind == KindCounter {
		return f.name + "_total", strconv.FormatUint(r.count, 10)
	}
	return f.name, strconv.FormatFloat(r.value, 'g', -1, 64)
}

// formatTime renders virtual nanoseconds as seconds at fixed nanosecond
// precision (deterministic, lexically time-ordered per equal width).
func formatTime(t simclock.Time) string {
	ns := int64(t)
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%09d", neg, ns/1e9, ns%1e9)
}

// sampleLabels renders the label set of one sample line; hosts carry
// host="N" first, the front-end omits it.
func sampleLabels(host int, labels []Label) string {
	if host < 0 && len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	if host >= 0 {
		fmt.Fprintf(&b, "host=%q", strconv.Itoa(host))
		first = false
	}
	for _, l := range labels {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
		first = false
	}
	b.WriteByte('}')
	return b.String()
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}
