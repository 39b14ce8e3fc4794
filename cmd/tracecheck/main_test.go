package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sdm/internal/cluster"
	"sdm/internal/core"
	"sdm/internal/model"
	"sdm/internal/obs"
	"sdm/internal/serving"
	"sdm/internal/uring"
	"sdm/internal/workload"
)

// tracedRun returns the JSONL a 2-host fleet traced at the decisions level
// writes through Fleet.WriteTrace — the writer this checker exists to hold
// to its schema.
func tracedRun(t *testing.T) []byte {
	t.Helper()
	cfg := model.M1()
	cfg.NumUserTables, cfg.NumItemTables, cfg.ItemBatch = 4, 2, 4
	cfg.TotalBytes = 1 << 20
	cfg.NumMLPLayers, cfg.AvgMLPWidth = 4, 64
	in, err := model.Build(cfg, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := in.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	scfg := core.Config{Seed: 7, Ring: uring.Config{SGL: true}, CacheBytes: 1 << 15}
	hosts, err := cluster.HostSet(in, tables, 2, &scfg, serving.Config{Spec: serving.HWSS(), InterOp: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := cluster.New(hosts, cluster.NewRoundRobin(), cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(in, workload.Config{Seed: 9, NumUsers: 200})
	if err != nil {
		t.Fatal(err)
	}
	f.SetGenerator(gen)
	if err := f.SetTrace(obs.Config{Level: obs.LevelDecisions}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(300, 40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRun(t *testing.T) {
	valid := tracedRun(t)
	lines := strings.SplitAfter(strings.TrimSuffix(string(valid), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("traced run wrote only %d lines", len(lines))
	}
	last := len(lines) - 1
	dir := t.TempDir()
	write := func(name string, ls []string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(ls, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if !strings.Contains(lines[2], `"kind":"route"`) {
		t.Fatalf("line 3 is not a route event: %s", lines[2])
	}
	badKind := append([]string(nil), lines...)
	badKind[2] = strings.Replace(lines[2], `"kind":"route"`, `"kind":"teleport"`, 1)

	var stderr bytes.Buffer
	if code := run([]string{write("valid.jsonl", lines)}, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("valid trace: exit %d, stderr %q", code, stderr.String())
	}
	if code := run(nil, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage") {
		t.Fatalf("no arguments: exit %d, stderr %q, want 2 and a usage line", code, stderr.String())
	}
	for _, c := range []struct {
		name string
		ls   []string
		want string // must appear in the error, after the file name
	}{
		{"kind.jsonl", badKind, `line 3: unknown kind "teleport"`},
		{"nosummary.jsonl", lines[:last], fmt.Sprintf("no summary line (got %d lines)", last)},
		{"count.jsonl", append(append([]string(nil), lines[:3]...), lines[4:]...), "summary routes="},
	} {
		stderr.Reset()
		path := write(c.name, c.ls)
		if code := run([]string{path}, &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", c.name, code)
		}
		if got := stderr.String(); !strings.Contains(got, path) || !strings.Contains(got, c.want) {
			t.Errorf("%s: stderr %q, want the path and %q", c.name, got, c.want)
		}
	}
}
