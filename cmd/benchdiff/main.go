// Command benchdiff compares two benchmark-trajectory artifacts — the
// BENCH_<rev>.json files `make bench-json` writes, JSON arrays of
// {id, title, header, rows, notes} experiment reports — id by id, exactly.
//
// Usage:
//
//	benchdiff baseline.json current.json
//
// Every experiment row is virtual time, byte-identical run to run, so there
// is nothing to tolerate: benchdiff prints the baseline (-) and current (+)
// lines of each report that differs and exits 1 when any id changed, was
// added or was removed. An id that appears twice in one file is an error.
// `make bench-gate` runs it against the committed baseline; a deliberate
// change replaces that file.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"sdm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchdiff baseline.json current.json")
	}
	base, baseByID, err := load(args[0])
	if err != nil {
		return err
	}
	cur, curByID, err := load(args[1])
	if err != nil {
		return err
	}

	var differ []string
	for _, c := range cur {
		b, ok := baseByID[c.ID]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "== %-10s added\n", c.ID)
			printDiff(stdout, nil, lines(c))
			differ = append(differ, c.ID+" (added)")
		case !slices.Equal(lines(b), lines(c)):
			fmt.Fprintf(stdout, "== %-10s changed\n", c.ID)
			printDiff(stdout, lines(b), lines(c))
			differ = append(differ, c.ID+" (changed)")
		}
	}
	for _, b := range base {
		if _, ok := curByID[b.ID]; !ok {
			fmt.Fprintf(stdout, "== %-10s removed\n", b.ID)
			differ = append(differ, b.ID+" (removed)")
		}
	}
	fmt.Fprintf(stdout, "%d of %d reports differ from the baseline\n", len(differ), len(base))
	if len(differ) > 0 {
		return fmt.Errorf("differs from the baseline: %s (replace the baseline deliberately if intended)",
			strings.Join(differ, ", "))
	}
	return nil
}

// load reads one artifact and indexes it by experiment id, rejecting an id
// that appears twice (the index would silently keep only one copy).
func load(path string) ([]experiments.Report, map[string]experiments.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var reps []experiments.Report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byID := make(map[string]experiments.Report, len(reps))
	for _, r := range reps {
		if _, dup := byID[r.ID]; dup {
			return nil, nil, fmt.Errorf("%s: experiment id %q appears more than once", path, r.ID)
		}
		byID[r.ID] = r
	}
	return reps, byID, nil
}

// lines flattens a report into the lines it prints as.
func lines(r experiments.Report) []string {
	out := []string{"title: " + r.Title, "header: " + r.Header}
	out = append(out, r.Rows...)
	for _, n := range r.Notes {
		out = append(out, "note: "+n)
	}
	return out
}

// printDiff prints, position by position, the baseline and current lines
// that differ.
func printDiff(w io.Writer, b, c []string) {
	for i := range max(len(b), len(c)) {
		if i < len(b) && i < len(c) && b[i] == c[i] {
			continue
		}
		if i < len(b) {
			fmt.Fprintf(w, "  - %s\n", b[i])
		}
		if i < len(c) {
			fmt.Fprintf(w, "  + %s\n", c[i])
		}
	}
}
