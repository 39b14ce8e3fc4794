package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun: one ok line per good file, exit 1 at the first bad file with its
// path on stderr, and exit 2 with a usage line when no file is named.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.txt"), filepath.Join(dir, "bad.txt")
	om := "# TYPE f gauge\nf 1 0.000000001\n# EOF\n"
	if err := os.WriteFile(good, []byte(om), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(strings.TrimSuffix(om, "# EOF\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{good, bad, good}, &stdout, &stderr); code != 1 ||
		stdout.String() != good+": ok (1 samples)\n" ||
		stderr.String() != "sdmcheck: "+bad+": missing # EOF terminator\n" {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(nil, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "usage: sdmcheck") {
		t.Fatalf("no arguments: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
