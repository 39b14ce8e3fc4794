// Command sdmcheck holds the files sdmcluster writes to their schemas: a
// decision trace (-trace) and a metrics export (-metrics), OpenMetrics text
// or JSONL. It tells the formats apart by each file's first line and prints
// one ok line per good file, so the outputs stay machine-readable without a
// jq or promtool dependency.
//
// Usage:
//
//	sdmcheck <file> [...]
package main

import (
	"fmt"
	"io"
	"os"

	"sdm/internal/sdmcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run checks each file in turn and returns the process exit code: 2 for a
// usage error, 1 at the first file that fails (its error goes to stderr).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: sdmcheck <trace.jsonl|metrics.txt|metrics.jsonl> [...]")
		return 2
	}
	for _, path := range args {
		what, err := sdmcheck.File(path)
		if err != nil {
			fmt.Fprintf(stderr, "sdmcheck: %s: %v\n", path, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: ok (%s)\n", path, what)
	}
	return 0
}
