package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"sdm/internal/experiments"
)

// TestFlagValidation: every rejecting branch of run's flag switch returns an
// error naming the flag.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct{ flag, args string }{
		{"-scale", "-scale 2 tab1"},
		{"-scale", "-scale -0.5 tab1"},
		{"-queries", "-queries -1 tab1"},
		{"-par", "-par -1 tab1"},
	} {
		err := run(strings.Fields(c.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("sdmbench %s: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
}

func TestListNamesEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	ids := experiments.IDs()
	if len(lines) != len(ids) {
		t.Fatalf("-list printed %d lines for %d experiments", len(lines), len(ids))
	}
	for i, id := range ids {
		if f := strings.Fields(lines[i]); len(f) < 2 || f[0] != id {
			t.Errorf("line %d is %q, want id %q followed by its title", i, lines[i], id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"tab99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "tab99") {
		t.Fatalf("error %v, want one naming the unknown id", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a failed run printed %q", out.String())
	}
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("no experiment given should be an error")
	}
}

// TestJSONIndependentOfPar: experiments are virtual time, so the worker
// pool's schedule never shows in the output — the determinism that lets
// benchdiff gate every row exactly.
func TestJSONIndependentOfPar(t *testing.T) {
	ids := []string{"tab10", "warmup", "polling"}
	var seq, par bytes.Buffer
	if err := run(append([]string{"-json", "-par", "1"}, ids...), &seq); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-json", "-par", "2"}, ids...), &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("-par 1 and -par 2 differ:\n%s\nvs\n%s", seq.String(), par.String())
	}
}

func TestJSONDecodesAsReports(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json", "tab11", "polling"}, &out); err != nil {
		t.Fatal(err)
	}
	var reps []experiments.Report
	if err := json.Unmarshal(out.Bytes(), &reps); err != nil {
		t.Fatalf("-json output is not a []experiments.Report: %v\n%s", err, out.String())
	}
	if len(reps) != 2 || reps[0].ID != "tab11" || reps[1].ID != "polling" {
		t.Fatalf("reports %+v, want tab11 then polling", reps)
	}
	for _, r := range reps {
		if r.Title == "" || len(r.Rows) == 0 {
			t.Errorf("report %s has no title or rows: %+v", r.ID, r)
		}
	}
	// The values travel with the rows: each report's headline number
	// decodes by name, in its unit.
	for i, want := range []experiments.Value{
		{Name: "fleet_power_saving", Unit: "frac"},
		{Name: "gain", Unit: "frac"},
	} {
		var got *experiments.Value
		for j := range reps[i].Values {
			if reps[i].Values[j].Name == want.Name {
				got = &reps[i].Values[j]
			}
		}
		if got == nil || got.Unit != want.Unit || got.Value <= 0 {
			t.Errorf("report %s: value %s = %+v, want a positive %s", reps[i].ID, want.Name, got, want.Unit)
		}
	}
}
