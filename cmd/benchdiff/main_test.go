package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeReport writes a single-experiment BENCH-style artifact and returns
// its path.
func writeReport(t *testing.T, name, row string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	data := `[{"id":"alloc","title":"t","header":"h","rows":["` + row + `"]}]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegressOnlyGatesDirectionAware(t *testing.T) {
	base := writeReport(t, "base.json", "fleet 2400 100.0 1.00")

	cases := []struct {
		name    string
		row     string
		args    []string
		wantErr bool
	}{
		{"improvement passes", "fleet 2400 50.0 0.50",
			[]string{"-tol", "10", "-regress-only", "alloc"}, false},
		{"regression fails", "fleet 2400 150.0 1.50",
			[]string{"-tol", "10", "-regress-only", "alloc"}, true},
		{"within tolerance passes", "fleet 2400 105.0 1.00",
			[]string{"-tol", "10", "-regress-only", "alloc"}, false},
		{"zero baseline growth fails", "fleet 2400 100.0 1.00",
			[]string{"-tol", "10", "-regress-only", "alloc"}, false},
		{"shape change fails", "fleet 2400 n/a 1.00",
			[]string{"-tol", "10", "-regress-only", "alloc"}, true},
		{"fail-on still fails on improvement", "fleet 2400 50.0 0.50",
			[]string{"-tol", "10", "-fail-on", "alloc"}, true},
		{"ungated drift passes", "fleet 2400 150.0 1.50",
			[]string{"-tol", "10"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeReport(t, "cur.json", tc.row)
			err := run(append(tc.args, base, cur))
			if (err != nil) != tc.wantErr {
				t.Fatalf("run(%v) err = %v, wantErr = %v", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestRowDeltaDirection(t *testing.T) {
	worst, worstUp, ok := rowDelta("a 100 200", "a 50 300")
	if !ok {
		t.Fatal("rows should be comparable")
	}
	if worst != 50 {
		t.Fatalf("worst = %g, want 50 (the 100→50 move)", worst)
	}
	if worstUp != 50 {
		t.Fatalf("worstUp = %g, want 50 (the 200→300 move)", worstUp)
	}
}

// TestRowDeltaWidenedColumn: a number that gains a digit under a %8.1f verb
// shortens the padding before it; the rows are still number-comparable (this
// pair is the fleetscale "64" row against BENCH_b2d3008.json, which used to
// read "shape changed").
func TestRowDeltaWidenedColumn(t *testing.T) {
	worst, worstUp, ok := rowDelta(
		"64            4800      4782      0.89       2.80      810.0     86.4",
		"64            4800      4782      0.89       3.22      988.5    105.4")
	if !ok {
		t.Fatal("a widened column changed the row's shape")
	}
	if worst < 21.9 || worst > 22.1 || worstUp != worst {
		t.Fatalf("worst = %g, worstUp = %g, want the 22%% growth of 810.0 → 988.5", worst, worstUp)
	}
	if _, _, ok := rowDelta("a 1 b", "a 1 c"); ok {
		t.Fatal("rows with different words are not comparable")
	}
}
