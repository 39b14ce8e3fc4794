// Command benchdiff compares two benchmark-trajectory artifacts (the
// BENCH_<rev>.json files `make bench-json` emits — JSON arrays of
// {id, title, header, rows, notes} experiment reports) and prints
// per-benchmark deltas, so consecutive revisions finally get diffed
// instead of accumulating as unread CI artifacts.
//
// Usage:
//
//	benchdiff [-tol pct] [-fail-on-change] [-fail-on ids] [-regress-only ids] baseline.json current.json
//
// Rows are matched positionally within each experiment. When a row's
// non-numeric skeleton is unchanged, every embedded number is compared and
// the worst relative delta reported; rows whose shape changed (or that
// were added/removed) are shown verbatim. The default exit status is 0
// regardless of drift, -fail-on-change turns any delta beyond -tol into
// exit 1 for local bisecting, and -fail-on gates a named subset: CI holds
// the deterministic query-engine and cluster benchmarks to the baseline
// exactly (-tol 0; `make bench-gate`) while the adapt drills
// (drift/rowrange/coord) stay warn-only, since those are the rows a PR is
// usually *meant* to move.
//
// -regress-only gates ids direction-aware: only *increases* beyond -tol
// fail, decreases print but pass. It fits cost budgets like the alloc
// experiment's B/query rows, where lower is strictly better and an
// improvement should never force a re-baseline to land.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"sdm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		tol     = fs.Float64("tol", 2.0, "relative delta (in %) below which a number counts as unchanged")
		strict  = fs.Bool("fail-on-change", false, "exit non-zero when any benchmark drifted beyond -tol")
		failOn  = fs.String("fail-on", "", "comma-separated experiment ids whose drift beyond -tol (or addition/removal) fails the run; other ids stay warn-only")
		regOnly = fs.String("regress-only", "", "comma-separated experiment ids gated direction-aware: only numeric increases beyond -tol (or shape changes/removal) fail; decreases pass")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tol < 0 {
		return fmt.Errorf("-tol must be >= 0, got %g", *tol)
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("want exactly two files (baseline, current), got %d", fs.NArg())
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	gated := map[string]bool{}
	for _, id := range strings.Split(*failOn, ",") {
		if id = strings.TrimSpace(id); id != "" {
			gated[id] = true
		}
	}
	regGated := map[string]bool{}
	for _, id := range strings.Split(*regOnly, ",") {
		if id = strings.TrimSpace(id); id != "" {
			regGated[id] = true
		}
	}

	baseByID := make(map[string]experiments.Report, len(base))
	for _, r := range base {
		baseByID[r.ID] = r
	}
	changed, unchanged, added := 0, 0, 0
	var gatedDrift []string
	for _, c := range cur {
		b, ok := baseByID[c.ID]
		if !ok {
			added++
			fmt.Printf("== %-10s new benchmark (%d rows)\n", c.ID, len(c.Rows))
			if gated[c.ID] {
				gatedDrift = append(gatedDrift, c.ID)
			}
			continue
		}
		delete(baseByID, c.ID)
		d, reg := diffReport(b, c, *tol)
		if d > 0 {
			changed++
			if gated[c.ID] || (regGated[c.ID] && reg > 0) {
				gatedDrift = append(gatedDrift, c.ID)
			}
		} else {
			unchanged++
		}
	}
	removed := make([]string, 0, len(baseByID))
	for id := range baseByID {
		removed = append(removed, id)
	}
	sort.Strings(removed)
	for _, id := range removed {
		fmt.Printf("== %-10s removed from current run\n", id)
		if gated[id] || regGated[id] {
			gatedDrift = append(gatedDrift, id)
		}
	}
	fmt.Printf("\n%d changed, %d unchanged, %d added, %d removed (tolerance %.1f%%)\n",
		changed, unchanged, added, len(baseByID), *tol)
	if len(gatedDrift) > 0 {
		sort.Strings(gatedDrift)
		return fmt.Errorf("gated benchmarks drifted beyond %.1f%%: %s (re-baseline deliberately if intended)",
			*tol, strings.Join(gatedDrift, ", "))
	}
	if *strict && (changed > 0 || added > 0 || len(baseByID) > 0) {
		return fmt.Errorf("benchmarks drifted beyond %.1f%%", *tol)
	}
	return nil
}

func load(path string) ([]experiments.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []experiments.Report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// numRE matches the numbers embedded in a rendered experiment row.
var numRE = regexp.MustCompile(`-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?`)

// spaceRE matches the column padding of a rendered row.
var spaceRE = regexp.MustCompile(`\s+`)

// skeleton is a row's non-numeric shape: numbers replaced by a marker and
// padding collapsed, so a number that gains a digit under a fixed-width verb
// (and eats one space of padding) leaves the shape unchanged.
func skeleton(row string) string {
	return spaceRE.ReplaceAllString(numRE.ReplaceAllString(row, "#"), " ")
}

// diffReport prints one experiment's drifted rows and returns how many
// rows moved beyond the tolerance, plus how many of those moved *up* —
// row shape changes and row additions/removals count as regressions, a
// pure numeric decrease does not.
func diffReport(b, c experiments.Report, tolPct float64) (drifted, regressed int) {
	n := len(b.Rows)
	if len(c.Rows) > n {
		n = len(c.Rows)
	}
	var lines []string
	for i := 0; i < n; i++ {
		switch {
		case i >= len(b.Rows):
			drifted++
			regressed++
			lines = append(lines, fmt.Sprintf("  + %s", c.Rows[i]))
		case i >= len(c.Rows):
			drifted++
			regressed++
			lines = append(lines, fmt.Sprintf("  - %s", b.Rows[i]))
		default:
			worst, worstUp, ok := rowDelta(b.Rows[i], c.Rows[i])
			if !ok {
				if b.Rows[i] != c.Rows[i] {
					drifted++
					regressed++
					lines = append(lines, fmt.Sprintf("  ~ %s\n    → %s (shape changed)", b.Rows[i], c.Rows[i]))
				}
				continue
			}
			if worst > tolPct {
				drifted++
				if worstUp > tolPct {
					regressed++
				}
				lines = append(lines, fmt.Sprintf("  ~ %s\n    → %s (worst Δ %.1f%%)", b.Rows[i], c.Rows[i], worst))
			}
		}
	}
	if drifted > 0 {
		fmt.Printf("== %-10s %d/%d rows drifted\n", c.ID, drifted, n)
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	return drifted, regressed
}

// rowDelta compares the numbers of two rows with an identical non-numeric
// skeleton and returns the worst relative delta in percent, both overall
// and restricted to increases (for direction-aware gating). ok is false
// when the skeletons differ (the rows are not number-comparable).
func rowDelta(b, c string) (worst, worstUp float64, ok bool) {
	if skeleton(b) != skeleton(c) {
		return 0, 0, false
	}
	bn := numRE.FindAllString(b, -1)
	cn := numRE.FindAllString(c, -1)
	if len(bn) != len(cn) {
		return 0, 0, false
	}
	for i := range bn {
		x, errX := strconv.ParseFloat(bn[i], 64)
		y, errY := strconv.ParseFloat(cn[i], 64)
		if errX != nil || errY != nil {
			continue
		}
		var d float64
		switch {
		case x == y:
			continue
		case x == 0:
			d = math.Inf(1)
		default:
			d = 100 * math.Abs(y-x) / math.Abs(x)
		}
		if d > worst {
			worst = d
		}
		if y > x && d > worstUp {
			worstUp = d
		}
	}
	return worst, worstUp, true
}
