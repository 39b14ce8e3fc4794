// Package metricscheck keeps the cases of the metricscheck command that
// sdmcheck replaced: every metrics export that command rejected,
// sdmcheck.File must reject too. The summary cases are rejected as a
// malformed TYPE line or an unknown kind, since the plane writes counters and
// gauges only. The package has no program; cmd/sdmcheck is the command.
package metricscheck

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm/internal/sdmcheck"
)

func checkText(t *testing.T, body string) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := sdmcheck.File(path)
	return err
}

const goodOM = `# HELP sdm_fleet_routes Queries routed.
# TYPE sdm_fleet_routes counter
sdm_fleet_routes_total 3 0.250000000
sdm_fleet_routes_total 9 0.500000000
# HELP sdm_host_occ Occupancy.
# TYPE sdm_host_occ gauge
sdm_host_occ{host="0"} 0.5 0.250000000
sdm_host_occ{host="1"} 0.25 0.250000000
# EOF
`

func TestOpenMetricsAccepts(t *testing.T) {
	if err := checkText(t, goodOM); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
}

func TestOpenMetricsFailureModes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(string) string
		want   string
	}{
		{"missing EOF", func(s string) string {
			return strings.Replace(s, "# EOF\n", "", 1)
		}, "EOF"},
		{"content after EOF", func(s string) string {
			return s + "sdm_fleet_routes_total 11 0.750000000\n"
		}, "after # EOF"},
		{"sample without TYPE", func(s string) string {
			return strings.Replace(s, "# TYPE sdm_fleet_routes counter\n", "", 1)
		}, "no preceding # TYPE"},
		{"counter regression", func(s string) string {
			return strings.Replace(s, "sdm_fleet_routes_total 9 0.500000000",
				"sdm_fleet_routes_total 1 0.500000000", 1)
		}, "counter dropped"},
		{"timestamp regression", func(s string) string {
			return strings.Replace(s, "sdm_fleet_routes_total 9 0.500000000",
				"sdm_fleet_routes_total 9 0.100000000", 1)
		}, "regressed"},
		{"bad quantile", func(s string) string {
			return strings.Replace(s, "# EOF\n",
				"# TYPE lat summary\nlat{quantile=\"0.42\"} 0.009 0.250000000\n# EOF\n", 1)
		}, "malformed TYPE line"},
		{"malformed timestamp", func(s string) string {
			return strings.Replace(s, "sdm_fleet_routes_total 3 0.250000000",
				"sdm_fleet_routes_total 3 0.25", 1)
		}, "timestamp"},
		{"empty file", func(string) string { return "" }, "missing # EOF"},
		{"no samples", func(string) string {
			return "# HELP x h\n# TYPE x counter\n# EOF\n"
		}, "no samples"},
		{"family re-declared", func(s string) string {
			return strings.Replace(s, "# HELP sdm_host_occ Occupancy.",
				"# TYPE sdm_fleet_routes gauge\n# HELP sdm_host_occ Occupancy.", 1)
		}, "re-declared"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkText(t, tc.mutate(goodOM))
			if err == nil {
				t.Fatalf("mutated stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

const goodJSONL = `{"family":"sdm_fleet_routes","name":"sdm_fleet_routes_total","kind":"counter","host":-1,"t_ns":250000000,"value":3}
{"family":"sdm_fleet_routes","name":"sdm_fleet_routes_total","kind":"counter","host":-1,"t_ns":500000000,"value":9}
{"family":"sdm_host_occ","name":"sdm_host_occ","kind":"gauge","host":0,"t_ns":250000000,"value":0.5}
`

func TestJSONLAccepts(t *testing.T) {
	if err := checkText(t, goodJSONL); err != nil {
		t.Fatalf("valid JSONL rejected: %v", err)
	}
}

func TestJSONLFailureModes(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"missing t_ns",
			`{"family":"f","name":"f_total","kind":"counter","host":0,"value":1}` + "\n",
			"missing host/t_ns/value"},
		{"unknown kind",
			`{"family":"f","name":"f","kind":"meter","host":0,"t_ns":1,"value":1}` + "\n",
			"unknown metric kind"},
		{"name outside family",
			`{"family":"f","name":"g_total","kind":"counter","host":0,"t_ns":1,"value":1}` + "\n",
			"is not family"},
		{"counter drop",
			`{"family":"f","name":"f_total","kind":"counter","host":0,"t_ns":1,"value":5}` + "\n" +
				`{"family":"f","name":"f_total","kind":"counter","host":0,"t_ns":2,"value":3}` + "\n",
			"counter dropped"},
		{"time regression",
			`{"family":"f","name":"f","kind":"gauge","host":0,"t_ns":9,"value":1}` + "\n" +
				`{"family":"f","name":"f","kind":"gauge","host":0,"t_ns":2,"value":1}` + "\n",
			"regressed"},
		{"bad quantile",
			`{"family":"f","name":"f","kind":"summary","host":0,"labels":{"quantile":"0.7"},"t_ns":1,"value":1}` + "\n",
			`unknown metric kind "summary"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkText(t, tc.body)
			if err == nil {
				t.Fatalf("invalid JSONL accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
