package sdmcheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodTrace has every event kind and outcome the checker counts: a diverted
// route, an admitted, a delayed and a shed query, and plan verdicts.
const goodTrace = `{"kind":"route","t":10,"host":-1,"route":{"i":0,"user":7,"class":0,"prev":-1,"chosen":0}}
{"kind":"route","t":20,"host":-1,"route":{"i":1,"user":7,"class":1,"prev":0,"chosen":1,"div":true}}
{"kind":"admit","t":20,"host":-1,"admit":{"class":0,"outcome":"admit","tokens":1.5}}
{"kind":"admit","t":30,"host":-1,"admit":{"class":1,"outcome":"delay","tokens":0,"delay_s":0.001}}
{"kind":"admit","t":40,"host":-1,"admit":{"class":1,"outcome":"shed","tokens":0}}
{"kind":"plan","t":50,"host":0,"plan":{"table":2,"range":0,"action":"promote","density":1.5,"bytes":4096}}
{"kind":"plan","t":50,"host":1,"plan":{"table":3,"range":1,"action":"demote","density":0.1,"bytes":4096}}
{"kind":"plan","t":60,"host":1,"plan":{"table":3,"range":2,"action":"defer","reason":"busy","density":0.5,"bytes":4096}}
{"kind":"summary","summary":{"level":"decisions","events":8,"routes":2,"diversions":1,"admits":2,"sheds":1,"delays":1,"promotes":1,"demotes":1,"defers":1,"defer_busy":1}}
`

func TestTraceAccepts(t *testing.T) {
	sum, err := Trace([]byte(goodTrace))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if sum.Events != 8 || sum.Delays != 1 || sum.Diversions != 1 {
		t.Fatalf("summary %+v", sum)
	}
	// A summary-level trace has counts but no event lines.
	lines := strings.SplitAfter(goodTrace, "\n")
	if _, err := Trace([]byte(lines[8])); err != nil {
		t.Fatalf("summary-level trace rejected: %v", err)
	}
}

func TestTraceFailureModes(t *testing.T) {
	lines := strings.SplitAfter(strings.TrimSuffix(goodTrace, "\n"), "\n")
	without := func(i int) string {
		return strings.Join(append(append([]string(nil), lines[:i]...), lines[i+1:]...), "")
	}
	for _, c := range []struct {
		name, body, want string
	}{
		{"unknown kind", strings.Replace(goodTrace, `"kind":"route"`, `"kind":"teleport"`, 1), `line 1: unknown kind "teleport"`},
		{"no summary", without(8), "no summary line (got 8 events)"},
		{"route count", without(0), "summary {"},
		// The summary's delays and diversions are compared with the events.
		{"delay counted as admit", strings.Replace(goodTrace, `"outcome":"delay"`, `"outcome":"admit"`, 1), "summary {"},
		{"diversion dropped", strings.Replace(goodTrace, `,"div":true`, "", 1), "summary {"},
		{"content after summary", goodTrace + lines[0], "line 10: content after the summary line"},
		{"time regression", strings.Replace(goodTrace, `"t":40`, `"t":5`, 1), "line 5: event: timestamp 5 regressed below 30"},
		{"missing t", strings.Replace(goodTrace, `"t":10,`, "", 1), "line 1: route event missing t/host"},
		{"missing field", strings.Replace(goodTrace, `"tokens":1.5`, `"tokenz":1.5`, 1), `line 3: admit: missing field "tokens"`},
		{"missing payload", strings.Replace(goodTrace, `"plan":{`, `"planz":{`, 1), `line 6: plan: missing field "table"`},
		{"bad outcome", strings.Replace(goodTrace, `"outcome":"shed"`, `"outcome":"drop"`, 1), "line 5: admit outcome drop"},
		{"bad action", strings.Replace(goodTrace, `"action":"demote"`, `"action":"evict"`, 1), "line 7: plan action evict"},
		{"summary without payload", strings.Replace(goodTrace, `"summary":{`, `"summaryz":{`, 1), "line 9: summary line without summary payload"},
		{"not JSON", "route\n", "line 1: invalid character"},
	} {
		if _, err := Trace([]byte(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

const goodOM = `# HELP sdm_fleet_routes Queries routed.
# TYPE sdm_fleet_routes counter
sdm_fleet_routes_total 3 0.250000000
sdm_fleet_routes_total 9 0.500000000
# HELP sdm_host_occ Occupancy.
# TYPE sdm_host_occ gauge
# UNIT sdm_host_occ ratio
sdm_host_occ{host="0",class="a b"} 0.5 0.250000000
sdm_host_occ{host="1",class="a b"} 0.25 0.250000000
sdm_host_occ{host="0",class="a b"} 0.125 0.500000000
# EOF
`

func TestOpenMetricsAccepts(t *testing.T) {
	if n, err := OpenMetrics([]byte(goodOM)); err != nil || n != 5 {
		t.Fatalf("valid stream: %d samples, error %v; want 5 and none", n, err)
	}
}

func TestOpenMetricsFailureModes(t *testing.T) {
	for _, c := range []struct {
		name, old, new, want string
	}{
		{"missing EOF", "# EOF\n", "", "missing # EOF terminator"},
		{"content after EOF", "# EOF\n", "# EOF\nsdm_fleet_routes_total 11 0.750000000\n", "line 12: content after # EOF"},
		{"sample without TYPE", "# TYPE sdm_fleet_routes counter\n", "", "line 2: sample sdm_fleet_routes_total has no preceding # TYPE"},
		{"counter without _total", "sdm_fleet_routes_total 3", "sdm_fleet_routes 3", "sample sdm_fleet_routes has no preceding # TYPE"},
		{"counter regression", "sdm_fleet_routes_total 9 0.5", "sdm_fleet_routes_total 1 0.5", "line 4: sdm_fleet_routes_total: counter dropped from 3 to 1"},
		{"timestamp regression", "0.125 0.500000000", "0.125 0.100000000", `line 10: sdm_host_occ{host="0",class="a b"}: timestamp 100000000 regressed below 250000000`},
		{"malformed timestamp", "3 0.250000000", "3 0.25", `bad timestamp "0.25"`},
		{"bad value", "3 0.250000000", "three 0.250000000", `bad value "three"`},
		{"no timestamp", "3 0.250000000", "3", "want 'value timestamp'"},
		{"no samples", goodOM, "# HELP x h\n# TYPE x counter\n# EOF\n", "no samples"},
		{"family re-declared", "# HELP sdm_host_occ", "# TYPE sdm_fleet_routes gauge\n# HELP sdm_host_occ", "family sdm_fleet_routes re-declared as gauge (was counter)"},
		// The plane writes counters and gauges only.
		{"summary TYPE", "# TYPE sdm_host_occ gauge", "# TYPE sdm_host_occ summary", `malformed TYPE line "# TYPE sdm_host_occ summary"`},
		{"short TYPE", "# TYPE sdm_host_occ gauge", "# TYPE sdm_host_occ", "malformed TYPE line"},
		{"unknown comment", "# UNIT", "# UNITS", "unknown comment"},
	} {
		_, err := OpenMetrics([]byte(strings.Replace(goodOM, c.old, c.new, 1)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

const goodJSONL = `{"family":"sdm_fleet_routes","name":"sdm_fleet_routes_total","kind":"counter","host":-1,"t_ns":250000000,"value":3}
{"family":"sdm_fleet_routes","name":"sdm_fleet_routes_total","kind":"counter","host":-1,"t_ns":500000000,"value":9}
{"family":"sdm_host_occ","name":"sdm_host_occ","kind":"gauge","host":0,"labels":{"class":"a","tier":"fm"},"t_ns":250000000,"value":0.5}
{"family":"sdm_host_occ","name":"sdm_host_occ","kind":"gauge","host":0,"labels":{"tier":"fm","class":"a"},"t_ns":500000000,"value":0.25}
`

func TestMetricsJSONLAccepts(t *testing.T) {
	if n, err := MetricsJSONL([]byte(goodJSONL)); err != nil || n != 4 {
		t.Fatalf("valid JSONL: %d samples, error %v; want 4 and none", n, err)
	}
}

func TestMetricsJSONLFailureModes(t *testing.T) {
	for _, c := range []struct {
		name, body, want string
	}{
		{"missing t_ns", `{"family":"f","name":"f_total","kind":"counter","host":0,"value":1}`, "line 1: missing host/t_ns/value"},
		{"missing name", `{"family":"f","kind":"counter","host":0,"t_ns":1,"value":1}`, "line 1: missing family/name"},
		{"unknown kind", `{"family":"f","name":"f","kind":"meter","host":0,"t_ns":1,"value":1}`, `unknown metric kind "meter"`},
		{"summary kind", `{"family":"f","name":"f","kind":"summary","host":0,"t_ns":1,"value":1}`, `unknown metric kind "summary"`},
		{"name outside family", `{"family":"f","name":"g_total","kind":"counter","host":0,"t_ns":1,"value":1}`, `name "g_total" is not family "f"'s counter sample "f_total"`},
		{"gauge with _total", `{"family":"f","name":"f_total","kind":"gauge","host":0,"t_ns":1,"value":1}`, "is not family"},
		{"bad host", `{"family":"f","name":"f","kind":"gauge","host":-2,"t_ns":1,"value":1}`, "bad host -2"},
		{"counter drop", `{"family":"f","name":"f_total","kind":"counter","host":0,"t_ns":1,"value":5}` + "\n" +
			`{"family":"f","name":"f_total","kind":"counter","host":0,"t_ns":2,"value":3}`, "line 2: f_total host=0 map[]: counter dropped from 5 to 3"},
		{"time regression", `{"family":"f","name":"f","kind":"gauge","host":0,"t_ns":9,"value":1}` + "\n" +
			`{"family":"f","name":"f","kind":"gauge","host":0,"t_ns":2,"value":1}`, "line 2: f host=0 map[]: timestamp 2 regressed below 9"},
		{"no samples", "", "no samples"},
	} {
		if _, err := MetricsJSONL([]byte(c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// Label order inside a row does not split a series.
	back := strings.Replace(goodJSONL, `"t_ns":500000000,"value":0.25`, `"t_ns":1,"value":0.25`, 1)
	want := "line 4: sdm_host_occ host=0 map[class:a tier:fm]: timestamp 1 regressed below 250000000"
	if _, err := MetricsJSONL([]byte(back)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("time regression across label orders: error %v, want %q", err, want)
	}
}

// TestFile: the first line picks the checker, and File says what it found.
func TestFile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ body, want string }{
		{goodTrace, "8 events: 2 route, 3 admit, 3 plan; level decisions"},
		{goodOM, "5 samples"},
		{goodJSONL, "4 samples"},
	} {
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := File(path); err != nil || got != c.want {
			t.Errorf("File: %q, %v; want %q", got, err, c.want)
		}
	}
	for _, c := range []struct{ body, want string }{
		{"", "missing # EOF terminator"},
		{`{"kind":"summary"}` + "\n", "line 1: summary line without summary payload"},
		{`{"family":"f"}` + "\n", "line 1: missing family/name"},
		{`{"family":"f","x":` + "\n", "line 1: unexpected end of JSON input"},
	} {
		path := filepath.Join(dir, "bad")
		if err := os.WriteFile(path, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := File(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("File(%q): error %v, want one containing %q", c.body, err, c.want)
		}
	}
	if _, err := File(filepath.Join(dir, "absent")); err == nil {
		t.Error("File of a missing path: no error")
	}
}
