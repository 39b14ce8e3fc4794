package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sdm/internal/simclock"
)

// counter registers a counter on r reading *n, the test's stand-in for the
// ledger an instrument mirrors.
func counter(r *Registry, d Desc, n *uint64) {
	r.NewCounterFunc(d, func() uint64 { return *n })
}

// gauge registers a gauge on r reading *v.
func gauge(r *Registry, d Desc, v *float64) {
	r.NewGaugeFunc(d, func(simclock.Time) float64 { return *v })
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	// Registration reads nothing and marking calls nothing.
	r.NewCounterFunc(Desc{Name: "cf"}, func() uint64 { panic("read through a nil registry") })
	r.NewGaugeFunc(Desc{Name: "gf"}, func(simclock.Time) float64 { panic("read through a nil registry") })
	r.MarkAll(100)
	r.ResetMarks()
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "# EOF\n" {
		t.Fatalf("nil registry rendered samples:\n%s", buf.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry(0)
	var n uint64
	counter(r, Desc{Name: "dup"}, &n)
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate name+labels should panic")
		}
	}()
	counter(r, Desc{Name: "dup"}, &n)
}

func TestDistinctLabelsShareFamily(t *testing.T) {
	r := NewRegistry(0)
	a, b := uint64(1), uint64(2)
	counter(r, Desc{Name: "fam", Help: "h", Labels: []Label{{"table", "0"}}}, &a)
	counter(r, Desc{Name: "fam", Help: "h", Labels: []Label{{"table", "1"}}}, &b)
	r.MarkAll(10)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE fam counter") != 1 {
		t.Fatalf("want a single family header:\n%s", out)
	}
	if !strings.Contains(out, `fam_total{host="0",table="0"} 1`) ||
		!strings.Contains(out, `fam_total{host="0",table="1"} 2`) {
		t.Fatalf("per-label series missing:\n%s", out)
	}
}

func TestMarkOrdering(t *testing.T) {
	r := NewRegistry(2)
	var c uint64
	counter(r, Desc{Name: "c"}, &c)
	c++
	r.MarkAll(100)
	c++
	r.MarkAll(200)
	// Equal-time re-mark overwrites the last point (final end-of-run mark
	// coinciding with a boundary must not duplicate the line).
	c++
	r.MarkAll(200)
	// Out-of-order marks are dropped rather than corrupting the series.
	c++
	r.MarkAll(150)

	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	want := "# HELP c \n# TYPE c counter\n" +
		"c_total{host=\"2\"} 1 0.000000100\n" +
		"c_total{host=\"2\"} 3 0.000000200\n" +
		"# EOF\n"
	if buf.String() != want {
		t.Fatalf("series mismatch:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestFuncBackedInstruments(t *testing.T) {
	r := NewRegistry(0)
	var n uint64
	r.NewCounterFunc(Desc{Name: "cf"}, func() uint64 { return n })
	r.NewGaugeFunc(Desc{Name: "gf"}, func(now simclock.Time) float64 { return float64(now) * 2 })
	n = 7
	r.MarkAll(5)
	n = 9
	r.MarkAll(10)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`cf_total{host="0"} 7 0.000000005`,
		`cf_total{host="0"} 9 0.000000010`,
		`gf{host="0"} 10 0.000000005`,
		`gf{host="0"} 20 0.000000010`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, buf.String())
		}
	}
}

// TestMergeOrdering checks the obs.Merge discipline: within a family,
// sample lines sort by (time, host, labels) regardless of which registry
// marked first.
func TestMergeOrdering(t *testing.T) {
	regs := []*Registry{NewRegistry(1), NewRegistry(0)}
	vals := []uint64{2, 1} // host + 1
	for i, r := range regs {
		counter(r, Desc{Name: "m"}, &vals[i])
	}
	// Host 1 (regs[0]) marks before host 0, and at interleaved times.
	regs[0].MarkAll(100)
	regs[0].MarkAll(300)
	regs[1].MarkAll(100)
	regs[1].MarkAll(200)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, regs); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "m_total") {
			lines = append(lines, sc.Text())
		}
	}
	want := []string{
		`m_total{host="0"} 1 0.000000100`,
		`m_total{host="1"} 2 0.000000100`,
		`m_total{host="0"} 1 0.000000200`,
		`m_total{host="1"} 2 0.000000300`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d sample lines, want %d:\n%v", len(lines), len(want), lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d: got %q want %q", i, lines[i], want[i])
		}
	}
}

func TestConflictingFamilyRejected(t *testing.T) {
	a := NewRegistry(0)
	b := NewRegistry(1)
	var n uint64
	var v float64
	counter(a, Desc{Name: "f", Help: "x"}, &n)
	gauge(b, Desc{Name: "f", Help: "x"}, &v)
	if err := WriteOpenMetrics(&bytes.Buffer{}, []*Registry{a, b}); err == nil {
		t.Fatalf("conflicting kinds under one family must be an error")
	}
}

// TestJSONLMirrorsOpenMetrics parses both renderings and checks they
// carry the same rows in the same order.
func TestJSONLMirrorsOpenMetrics(t *testing.T) {
	fe := NewRegistry(-1)
	h0 := NewRegistry(0)
	var c uint64
	var g float64
	counter(fe, Desc{Name: "routes", Help: "r"}, &c)
	gauge(h0, Desc{Name: "occ", Help: "o", Labels: []Label{{"ring", "a"}}}, &g)
	c += 3
	g = 0.5
	fe.MarkAll(250e6)
	h0.MarkAll(250e6)
	c++
	g = 0.75
	fe.MarkAll(500e6)
	h0.MarkAll(500e6)

	regs := []*Registry{fe, h0}
	var om, jl bytes.Buffer
	if err := WriteOpenMetrics(&om, regs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jl, regs); err != nil {
		t.Fatal(err)
	}

	// Collect OpenMetrics sample lines (skip comments).
	var omLines []string
	sc := bufio.NewScanner(bytes.NewReader(om.Bytes()))
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "#") {
			omLines = append(omLines, sc.Text())
		}
	}
	var rows []jsonRow
	sc = bufio.NewScanner(bytes.NewReader(jl.Bytes()))
	for sc.Scan() {
		var r jsonRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		rows = append(rows, r)
	}
	if len(rows) != len(omLines) {
		t.Fatalf("row count mismatch: %d JSONL vs %d OpenMetrics", len(rows), len(omLines))
	}
	for i, r := range rows {
		// Same order: the OpenMetrics line must start with the JSONL name
		// and carry the same value + timestamp.
		if !strings.HasPrefix(omLines[i], r.Name) {
			t.Fatalf("row %d order mismatch: %q vs %q", i, r.Name, omLines[i])
		}
		if !strings.Contains(omLines[i], " "+r.Value.String()+" ") {
			t.Fatalf("row %d value mismatch: %q vs %q", i, r.Value, omLines[i])
		}
		if !strings.HasSuffix(omLines[i], formatTime(simclock.Time(r.TNs))) {
			t.Fatalf("row %d timestamp mismatch: %d vs %q", i, r.TNs, omLines[i])
		}
	}
	// Host fidelity: front-end rows say -1, host rows carry labels.
	if rows[0].Host != -1 {
		t.Fatalf("front-end row host = %d, want -1", rows[0].Host)
	}
	foundRing := false
	for _, r := range rows {
		if r.Labels["ring"] == "a" {
			foundRing = true
		}
	}
	if !foundRing {
		t.Fatalf("label lost in JSONL: %+v", rows)
	}
}

func TestResetSemantics(t *testing.T) {
	r := NewRegistry(0)
	c, g := uint64(5), 1.5
	counter(r, Desc{Name: "c"}, &c)
	gauge(r, Desc{Name: "g"}, &g)
	r.MarkAll(10)

	// ResetMarks drops the series, not the values: the next mark reads the
	// ledger as it stands.
	r.ResetMarks()
	r.MarkAll(20)
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, []*Registry{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `c_total{host="0"} 5 0.000000020`) ||
		!strings.Contains(buf.String(), `g{host="0"} 1.5 0.000000020`) {
		t.Fatalf("ResetMarks must keep values:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "0.000000010") {
		t.Fatalf("ResetMarks must drop old marks:\n%s", buf.String())
	}
}

func TestNilInstrumentOpsAllocNothing(t *testing.T) {
	// Unmetered runs hold a nil registry: registering on it and marking it
	// must allocate nothing.
	var r *Registry
	if n := testing.AllocsPerRun(100, func() {
		r.NewCounterFunc(Desc{Name: "c"}, func() uint64 { return 0 })
		r.NewGaugeFunc(Desc{Name: "g"}, func(simclock.Time) float64 { return 0 })
		r.MarkAll(50)
		r.ResetMarks()
	}); n != 0 {
		t.Fatalf("disabled metrics path allocated %v per op", n)
	}
}
