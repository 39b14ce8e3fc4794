package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestFlagValidation: every rejecting branch of run's flag switches returns
// an error naming the flag, before any model is built.
func TestFlagValidation(t *testing.T) {
	for _, c := range []struct {
		flag string // must appear in the error
		args string
	}{
		{"-scale", "-scale 0"},
		{"-scale", "-scale 2"},
		{"-queries", "-queries 0"},
		{"-hosts", "-hosts 0"},
		{"-usertables", "-usertables -1"},
		{"-itemtables", "-itemtables -1"},
		{"-model", "-model M9"},
	} {
		err := run(strings.Fields(c.args), io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("sdmtrace %s: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
}

// TestRunPrintsLocalityTables: a 50-query run prints the temporal CDF table
// with its user and item columns, one row per CDF fraction, and the spatial
// table.
func TestRunPrintsLocalityTables(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-queries 50 -hosts 2"), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"50 queries",
		"temporal locality",
		"rows frac          user       item      user/host",
		"spatial locality",
		"table      kind   locality",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
