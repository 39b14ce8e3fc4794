package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm/internal/experiments"
)

// writeReports writes a BENCH-style artifact and returns its path.
func writeReports(t *testing.T, reps []experiments.Report) string {
	t.Helper()
	data, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// committedBaseline loads the repository's one committed BENCH_*.json.
func committedBaseline(t *testing.T) []experiments.Report {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) != 1 {
		t.Fatalf("want exactly one committed BENCH_*.json baseline, got %v (%v)", paths, err)
	}
	reps, _, err := load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

// bumpDigit returns row with its first decimal digit incremented (9 wraps to
// 0): one number edited, everything else byte-equal.
func bumpDigit(t *testing.T, row string) string {
	t.Helper()
	i := strings.IndexAny(row, "0123456789")
	if i < 0 {
		t.Fatalf("row %q has no number", row)
	}
	return row[:i] + string('0'+(row[i]-'0'+1)%10) + row[i+1:]
}

// TestExactGate: identical files pass, and every kind of difference fails
// with an error naming the id — there is no tolerance and no warn-only id.
func TestExactGate(t *testing.T) {
	a := experiments.Report{ID: "tab9", Title: "t", Header: "h", Rows: []string{"nand 100", "optane 200"}}
	b := experiments.Report{ID: "coord", Title: "t", Rows: []string{"lockstep 1.32"}, Notes: []string{"n"}}
	changed := b
	changed.Rows = []string{"lockstep 1.33"}
	extra := experiments.Report{ID: "slo", Title: "t", Rows: []string{"sticky 0.9"}}

	committed := committedBaseline(t)
	perturbed := make([]experiments.Report, len(committed))
	copy(perturbed, committed)
	found := false
	for i, r := range perturbed {
		if r.ID == "coord" {
			rows := append([]string(nil), r.Rows...)
			rows[0] = bumpDigit(t, rows[0])
			perturbed[i].Rows = rows
			found = true
		}
	}
	if !found {
		t.Fatal("committed baseline has no coord report")
	}

	for _, c := range []struct {
		name      string
		base, cur []experiments.Report
		want      string // a fragment of the error; "" = must pass
	}{
		{"identical files pass", []experiments.Report{a, b}, []experiments.Report{a, b}, ""},
		{"committed baseline matches itself", committed, committed, ""},
		{"changed row fails", []experiments.Report{a, b}, []experiments.Report{a, changed}, ": coord (changed) ("},
		{"changed note fails", []experiments.Report{a, b}, []experiments.Report{a, {ID: "coord", Title: "t", Rows: b.Rows}}, ": coord (changed) ("},
		{"added id fails", []experiments.Report{a, b}, []experiments.Report{a, b, extra}, ": slo (added) ("},
		{"removed id fails", []experiments.Report{a, b}, []experiments.Report{b}, ": tab9 (removed) ("},
		{"repeated id in baseline fails", []experiments.Report{a, b, a}, []experiments.Report{a, b}, `id "tab9" appears more than once`},
		{"repeated id in current fails", []experiments.Report{a, b}, []experiments.Report{a, b, b}, `id "coord" appears more than once`},
		{"perturbed coord number in the committed baseline fails", committed, perturbed, ": coord (changed) ("},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := run([]string{writeReports(t, c.base), writeReports(t, c.cur)}, io.Discard)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestTakesNoFlags: the only accepted invocation is two file names.
func TestTakesNoFlags(t *testing.T) {
	path := writeReports(t, nil)
	for _, args := range [][]string{nil, {path}, {"-tol", "0", path, path}, {path, path, path}} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}
