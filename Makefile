# Targets mirror the CI pipeline (.github/workflows/ci.yml).

GO ?= go
REV ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build vet lint fmt-check test race examples examples-check loc loc-check reach-check bench bench-scale bench-e2e bench-e2e-smoke bench-e2e-compare bench-micro-compare smoke reach bench-json bench-baseline bench-gate layers profile ci

all: build test

build:
	$(GO) build ./...
	$(GO) build ./examples/...
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/quant

# Determinism lint: sdmvet (cmd/sdmvet, internal/lint) enforces the
# bit-identical virtual-time invariant statically — no wall clock, no
# unseeded randomness, no map-order-dependent emission, no
# Duration/virtual-time unit mixing. Sanctioned sites carry
# `//sdm:allow <analyzer> <reason>`. Also runs go vet with -unsafeptr.
lint:
	$(GO) run ./cmd/sdmvet ./...
	$(GO) vet -unsafeptr ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every example end to end (CI's "Run examples" step): each must exit 0.
EXAMPLES = adaptive cluster multitenant quickstart scaleout tiered_serving

examples:
	@for e in $(EXAMPLES); do echo "== examples/$$e"; $(GO) run ./examples/$$e || exit 1; done

# The examples' stdout, pinned: fails when `make examples` prints anything
# but EXAMPLES_GOLDEN, byte for byte (every example is virtual time, so the
# bytes are the same run to run and under GOARCH=386). A change that moves a
# line on purpose regenerates the file in the same change:
#   make -s --no-print-directory examples > examples/testdata/stdout.golden
EXAMPLES_GOLDEN = examples/testdata/stdout.golden

examples-check:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(MAKE) -s --no-print-directory examples > $$out || exit 1; \
	diff -u $(EXAMPLES_GOLDEN) $$out >&2 || { echo "examples-check: stdout differs from $(EXAMPLES_GOLDEN)" >&2; exit 1; }; \
	echo "examples-check: stdout equals $(EXAMPLES_GOLDEN)"

# Non-test, non-bench/, non-testdata Go and assembly lines per package and
# in total — the number ROADMAP aim 2 ("the same numbers from the least
# code") tracks; a package's assembly share is printed beside it.
# Simplification PRs quote it for parent and change in CHANGES.md.
loc:
	@find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1; if ($$2 ~ /\.s$$/) s[d] += $$1 } \
			END { for (d in n) printf "%7d %s%s\n", n[d], d, (d in s ? " (" s[d] " assembly)" : "") | "sort -k2"; \
				close("sort -k2"); printf "%7d total\n", t }'

# The aim-2 ratchet: the tree may not outgrow the last simplification PR's
# `make loc` total. Raising LOC_BUDGET is allowed — as a one-line diff a
# reviewer sees; lower it whenever a PR shrinks the tree.
LOC_BUDGET = 18747

# The virtual-time ratchet: the seed-7 sim_digest of each bench/ workload
# (`bench-e2e-smoke` fails when a printed digest differs or is missing). A
# wall-clock-only change leaves them alone; a change that moves virtual time
# on purpose updates them here, as a diff a reviewer sees.
SMOKE_DIGESTS = fleet-sticky=9ef4758fe41ada43 fleet-feedback=2872bde57a5646fe \
	host-sm-miss=b3ee1ca414678d56 adapt-drift-writes=52de360c2381e14e

# The heap ratchet: each workload's smoke heap_live_mb in MB
# (`bench-e2e-smoke` fails when one exceeds its pin by more than
# BENCHMARK.json's heap_live_mb bound). 386 builds have 4-byte pointers and
# their own pins; every other GOARCH is held to the 64-bit ones. A PR that
# lowers a workload's heap lowers its pin, as it lowers LOC_BUDGET.
SMOKE_HEAP_MB = fleet-sticky=15.86 fleet-feedback=16.65 host-sm-miss=8.06 adapt-drift-writes=16.64
SMOKE_HEAP_MB_386 = fleet-sticky=15.48 fleet-feedback=16.29 host-sm-miss=8.04 adapt-drift-writes=16.29

loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_BUDGET) ]; then \
		echo "make loc: $$total non-test lines exceed LOC_BUDGET=$(LOC_BUDGET) (Makefile)" >&2; exit 1; \
	fi; \
	echo "make loc: $$total non-test lines, within LOC_BUDGET=$(LOC_BUDGET)"

# One iteration of every benchmark — the CI smoke run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The 64-host fleet benchmark with allocation reporting (B/op, allocs/op)
# — the quick local check that the zero-alloc hot path held up.
bench-scale:
	$(GO) test -bench=BenchmarkFleetScale -benchmem -run='^$$' .

# The two-clock end-to-end benchmark (bench/README.md, BENCHMARK.json): all
# four workloads interleaved, 12 s each, end-to-end metrics by name. One
# workload the way the PR driver runs it:
#   go run ./bench --workload fleet-sticky --seed 42 --seconds 12 --trace 0
bench-e2e:
	$(GO) run ./bench -seed 42

# The same code path end to end on a few hundred queries per workload with
# every correctness check on (conservation, determinism, oracle) — the CI
# smoke run; fails when any check does, when a workload's sim_digest is not
# the one pinned in SMOKE_DIGESTS, or when its heap_live_mb exceeds its
# SMOKE_HEAP_MB pin by more than the bound.
bench-e2e-smoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./bench -smoke -seed 7 -seconds 1 > $$out; st=$$?; cat $$out; test $$st -eq 0 || exit $$st; \
	heap="$(SMOKE_HEAP_MB)"; heapvar=SMOKE_HEAP_MB; \
	if [ "$$($(GO) env GOARCH)" = 386 ]; then heap="$(SMOKE_HEAP_MB_386)"; heapvar=SMOKE_HEAP_MB_386; fi; \
	bound=$$(awk '/"name": "heap_live_mb"/ { f = 1 } f && /"bound"/ { gsub(/[^0-9.]/, "", $$2); print $$2; exit }' BENCHMARK.json); \
	test -n "$$bound" || { echo "bench-e2e-smoke: no heap_live_mb bound in BENCHMARK.json" >&2; exit 1; }; \
	awk -v pinned="$(SMOKE_DIGESTS)" -v heap="$$heap" -v heapvar=$$heapvar -v bound=$$bound ' \
		BEGIN { n = split(pinned, p, " "); for (i = 1; i <= n; i++) { split(p[i], kv, "="); want[kv[1]] = kv[2] } \
			n = split(heap, p, " "); for (i = 1; i <= n; i++) { split(p[i], kv, "="); pin[kv[1]] = kv[2] } } \
		$$2 == "sim_digest" { seen[$$1] = 1; if ($$3 != want[$$1]) { \
			printf "bench-e2e-smoke: %s sim_digest %s, pinned %s (Makefile SMOKE_DIGESTS)\n", $$1, $$3, want[$$1]; bad = 1 } } \
		$$2 == "heap_live_mb" { heapseen[$$1] = 1; if (!($$1 in pin)) { \
			printf "bench-e2e-smoke: %s has no heap pin (Makefile %s)\n", $$1, heapvar; bad = 1 } \
			else if ($$3 > pin[$$1] * (1 + bound)) { \
			printf "bench-e2e-smoke: %s heap_live_mb %s MB, pinned %s MB + %g%% (Makefile %s)\n", $$1, $$3, pin[$$1], 100 * bound, heapvar; bad = 1 } } \
		END { for (w in want) if (!(w in seen)) { printf "bench-e2e-smoke: %s printed no sim_digest\n", w; bad = 1 } \
			for (w in pin) if (!(w in heapseen)) { printf "bench-e2e-smoke: %s printed no heap_live_mb\n", w; bad = 1 } \
			exit bad }' $$out >&2

# The paired-run protocol behind every wall-clock claim in CHANGES.md, as a
# command:  make bench-e2e-compare BASE=<rev> [WORKLOAD="a b"] [PAIRS=10] [SEED=42] [E2E_SECONDS=12]
# builds BASE's ./bench (from a `git archive` of it in a temp dir) and the
# tree's own once each, runs `--workload W --seed SEED --trace 0` PAIRS times
# per side in alternating order, each binary from its own checkout, and prints
# per end-to-end wall-clock metric both medians [quartiles] and in how many
# pairs the change read lower (ties count for neither). Every sim_* value and
# the sim_digest must be equal in all runs of both sides, or it fails.
WORKLOAD ?= fleet-sticky fleet-feedback host-sm-miss adapt-drift-writes
PAIRS ?= 10
SEED ?= 42
E2E_SECONDS ?= 12

bench-e2e-compare:
	@test -n "$(BASE)" || { echo 'usage: make bench-e2e-compare BASE=<rev> [WORKLOAD="..."] [PAIRS=10] [SEED=42] [E2E_SECONDS=12]' >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir $$tmp/base; \
	git archive $(BASE) | tar -x -C $$tmp/base; \
	(cd $$tmp/base && $(GO) build -o $$tmp/bench_base ./bench); \
	$(GO) build -o $$tmp/bench_change ./bench; \
	for w in $(WORKLOAD); do \
		for i in $$(seq 1 $(PAIRS)); do \
			order="base change"; if [ $$((i % 2)) -eq 0 ]; then order="change base"; fi; \
			for side in $$order; do \
				dir=.; if [ $$side = base ]; then dir=$$tmp/base; fi; \
				(cd $$dir && $$tmp/bench_$$side --workload $$w --seed $(SEED) --seconds $(E2E_SECONDS) --trace 0) > $$tmp/run.txt; \
				awk -v side=$$side -v pair=$$i -v w=$$w '$$1 == w { print side, pair, $$2, $$3 }' $$tmp/run.txt >> $$tmp/$$w.rows; \
			done; \
		done; \
		awk -v w=$$w -v seed=$(SEED) -v base=$(BASE) ' \
			function q(m, side, f,    n, i, j, t, a, h, lo) { \
				n = 0; for (i = 1; i <= pairs; i++) a[++n] = v[m, side, i]; \
				for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t } \
				h = 1 + (n - 1) * f; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo]) } \
			$$3 ~ /^sim_/ { if (!($$3 in sim)) sim[$$3] = $$4; else if (sim[$$3] != $$4) { printf "%s: %s differs: %s vs %s (%s, pair %d)\n", w, $$3, sim[$$3], $$4, $$1, $$2; bad = 1 } } \
			{ v[$$3, $$1, $$2] = $$4; if ($$2 > pairs) pairs = $$2 } \
			END { \
				printf "%s  seed %s  %d pairs  base %s  sim_digest %s\n", w, seed, pairs, base, sim["sim_digest"]; \
				n = split("setup_s wall_us_per_query alloc_bytes_per_query heap_live_mb", ms, " "); \
				for (k = 1; k <= n; k++) { m = ms[k]; ahead = 0; \
					for (i = 1; i <= pairs; i++) if (v[m, "change", i] < v[m, "base", i]) ahead++; \
					printf "  %-22s base %.6g [%.6g–%.6g]  change %.6g [%.6g–%.6g]  change ahead in %d/%d pairs\n", m, \
						q(m, "base", .5), q(m, "base", .25), q(m, "base", .75), q(m, "change", .5), q(m, "change", .25), q(m, "change", .75), ahead, pairs } \
				exit bad }' $$tmp/$$w.rows; \
	done

# The micro protocol behind every layer-row claim in CHANGES.md, as a command:
#   make bench-micro-compare BASE=<rev> [BENCH=regex] [RUNS=6]
# builds BASE's root-package test binary (from a `git archive` of it in a temp
# dir) and the tree's own once each, runs `-test.bench BENCH -test.benchmem`
# RUNS times per side in alternating order, each binary from its own checkout,
# and prints per benchmark row ns/op, B/op and allocs/op as medians
# [quartiles] for both sides and in how many runs the change read lower
# (ties count for neither). The layer map in micro_bench_test.go names each
# layer's row.
BENCH ?= .
RUNS ?= 6

bench-micro-compare:
	@test -n "$(BASE)" || { echo 'usage: make bench-micro-compare BASE=<rev> [BENCH=regex] [RUNS=6]' >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir $$tmp/base; \
	git archive $(BASE) | tar -x -C $$tmp/base; \
	(cd $$tmp/base && $(GO) test -c -o $$tmp/micro_base .); \
	$(GO) test -c -o $$tmp/micro_change .; \
	for i in $$(seq 1 $(RUNS)); do \
		order="base change"; if [ $$((i % 2)) -eq 0 ]; then order="change base"; fi; \
		for side in $$order; do \
			dir=.; if [ $$side = base ]; then dir=$$tmp/base; fi; \
			(cd $$dir && $$tmp/micro_$$side -test.run '^$$' -test.bench '$(BENCH)' -test.benchmem -test.timeout 60m) > $$tmp/run.txt; \
			awk -v side=$$side -v run=$$i '$$1 ~ /^Benchmark/ && NF >= 4 { \
				for (f = 3; f < NF; f += 2) if ($$(f+1) ~ /^(ns|B|allocs)\/op$$/) print side, run, $$1, $$(f+1), $$f }' $$tmp/run.txt >> $$tmp/rows; \
		done; \
	done; \
	awk -v base=$(BASE) -v runs=$(RUNS) ' \
		function q(k, side, f,    n, i, j, t, a, h, lo) { \
			n = 0; for (i = 1; i <= runs; i++) if ((k, side, i) in v) a[++n] = v[k, side, i]; \
			if (n == 0) return "-"; \
			for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t } \
			h = 1 + (n - 1) * f; lo = int(h); return sprintf("%.6g", lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])) } \
		{ k = $$3 SUBSEP $$4; if (!(k in seen)) { seen[k] = 1; keys[++m] = k } v[k, $$1, $$2] = $$5 } \
		END { printf "%d runs per side, base %s\n", runs, base; \
			for (i = 1; i <= m; i++) { k = keys[i]; split(k, nu, SUBSEP); ahead = 0; \
				for (r = 1; r <= runs; r++) if ((k, "change", r) in v && (k, "base", r) in v && v[k, "change", r] < v[k, "base", r]) ahead++; \
				if (nu[1] != last) { print nu[1]; last = nu[1] } \
				printf "  %-10s base %s [%s–%s]  change %s [%s–%s]  change lower in %d/%d runs\n", nu[2], \
					q(k, "base", .5), q(k, "base", .25), q(k, "base", .75), q(k, "change", .5), q(k, "change", .25), q(k, "change", .75), ahead, runs } }' $$tmp/rows

# How `smoke` invokes sdmcluster; `reach` substitutes a coverage-instrumented
# binary.
SDMCLUSTER ?= $(GO) run ./cmd/sdmcluster

# The CLI smoke runs of CI's bench-smoke job: one sdmcluster run per feature
# family (routing, adaptive tiering at both grains, coordination + wear,
# weighted scorers, admission, profiling hooks). The -workers 1 vs 4
# trace/metrics byte-compares are tier-1 tests (cmd/sdmcluster); the
# experiments, drills included, run and are gated in bench-json/bench-gate.
smoke:
	$(SDMCLUSTER) -hosts 3 -queries 200 -policy all -warm=false
	$(SDMCLUSTER) -hosts 2 -queries 300 -policy sticky -hottables 2 -drift 0.5 -adapt -warm=false
	$(SDMCLUSTER) -hosts 2 -queries 300 -policy sticky -hottables 2 -drift 0.5 -adapt -grain range -warm=false
	$(SDMCLUSTER) -hosts 3 -queries 300 -policy sticky -hottables 2 -itemtables 1 -drift 0.5 -adapt -grain range -coord -wear 0.01 -warm=false
	$(SDMCLUSTER) -hosts 3 -queries 300 -policy weighted -scorers affinity=1,queue=0.4,migavoid=1.2 -hottables 2 -drift 0.5 -adapt -grain range -coord -warm=false
	$(SDMCLUSTER) -hosts 2 -queries 300 -qps 600 -sloclasses 2 -admit gold=200:20,best-effort=100:10:queue -warm=false
	$(SDMCLUSTER) -hosts 4 -queries 2000 -policy sticky -adapt -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -tagshow sdm_phase cpu.pprof | head -20
	$(GO) tool pprof -top mem.pprof | head -5

# Reachability audit — the "live rule" (ROADMAP aim 2): an option, type or
# function is live only if some program in the tree can reach it. Builds every
# package main with coverage over the whole module, runs the smoke commands,
# every experiment, the flag families smoke leaves out (-full, -list, -fail, -json,
# -trace, -metrics in both formats, -wear without -coord), sdmcheck on the
# trace and metrics files those runs write, sdmtrace, the six examples and the
# four bench/ workloads (plain and traced) under one GOCOVERDIR, and lists the
# simulator-package functions (internal/ without lint, plus sdm.go) that no
# run executed, as `package-dir name`. A function
# counts as reached when any coverage block starting on its line ran, so an
# empty body that runs is reached (`go tool covdata func` reads it as 0.0 %).
# A listed function is a question — delete it, or give the reason it stays a
# line in reach.allow; reach-check holds the list to that file.
REACH_DIR ?= $(or $(TMPDIR),/tmp)/sdm-reach

reach:
	@rm -rf $(REACH_DIR) && mkdir -p $(REACH_DIR)/bin $(REACH_DIR)/cov $(REACH_DIR)/out
	@for m in ./cmd/*/main.go ./examples/*/main.go ./bench/main.go; do p=$$(dirname $$m); \
		$(GO) build -cover -coverpkg=./... -o $(REACH_DIR)/bin/$$(basename $$p) $$p || exit 1; \
	done
	@export GOCOVERDIR=$(REACH_DIR)/cov; b=$(REACH_DIR)/bin; o=$(REACH_DIR)/out; { \
		$(MAKE) -s smoke SDMCLUSTER=$$b/sdmcluster && \
		$$b/sdmbench -json all && \
		$$b/sdmbench -list && \
		$$b/sdmbench -full tab3 tab4 && \
		$$b/sdmcluster -hosts 3 -queries 300 -policy sticky -fail 1 -json -warm=false && \
		$$b/sdmcluster -hosts 2 -queries 300 -hottables 2 -drift 0.5 -adapt -wear 0.01 -warm=false && \
		$$b/sdmcluster -hosts 3 -queries 300 -qps 600 -policy weighted -hottables 2 -drift 0.5 -adapt -grain range -coord -warm=false \
			-trace $$o/trace.jsonl -trace-level counterfactual -metrics $$o/metrics.txt && \
		$$b/sdmcluster -hosts 3 -queries 300 -policy sticky -warm=false -metrics $$o/metrics.jsonl && \
		$$b/sdmcheck $$o/trace.jsonl $$o/metrics.txt $$o/metrics.jsonl && \
		$$b/sdmtrace -queries 200 && \
		for e in $(EXAMPLES); do $$b/$$e || exit 1; done && \
		for w in fleet-sticky fleet-feedback host-sm-miss adapt-drift-writes; do \
			$$b/bench --workload $$w --seed 42 --seconds 1 --trace 0 && \
			$$b/bench --workload $$w --seed 42 --seconds 1 --trace 1 || exit 1; \
		done; \
	} > $(REACH_DIR)/out/log.txt 2>&1 || { tail -20 $(REACH_DIR)/out/log.txt >&2; exit 1; }
	@$(GO) tool covdata textfmt -i=$(REACH_DIR)/cov -o=$(REACH_DIR)/out/blocks.txt
	@$(GO) tool covdata func -i=$(REACH_DIR)/cov | awk -v funcs=$(REACH_DIR)/out/funcs.txt ' \
		FNR == NR { split($$1, b, ":"); if ($$NF + 0 > 0) ran[b[1] ":" int(b[2])] = 1; next } \
		$$1 ~ /^sdm\/(sdm\.go|internal\/)/ && $$1 !~ /^sdm\/internal\/lint\// { \
			split($$1, f, ":"); d = f[1]; sub("^sdm/", "", d); if (!sub("/[^/]*$$", "", d)) d = "."; \
			live = $$NF != "0.0%" || (f[1] ":" f[2]) in ran; n++; print d, $$2, live > funcs; \
			if (!live) { z++; printf "%-20s %s\n", d, $$2 } } \
		END { printf "%d of %d simulator-package functions are reached by no program\n", z, n }' $(REACH_DIR)/out/blocks.txt -

# The live-rule gate: every function `make reach` lists has its line in
# reach.allow (package dir, name, class, note), and every line there names a
# function that exists and that no program reaches. Growth of the list is a
# one-line diff to reach.allow, with its reason, that a reviewer sees.
reach-check: reach
	@awk 'FILENAME == "reach.allow" { if (NF == 0 || /^#/) next; \
			if (NF < 4) { printf "reach.allow:%d: want `package-dir name class note`\n", FNR; bad = 1 } \
			k = $$1 " " $$2; line[k] = FNR; keys[++m] = k; next } \
		{ k = $$1 " " $$2; exists[k] = 1; if ($$3) { if (k in line) { \
			printf "reach.allow:%d: %s is reached by a program now: delete the line\n", line[k], k; bad = 1 } } \
		else if (!(k in line)) { printf "make reach: %s is reached by no program: delete it, or add a line to reach.allow\n", k; bad = 1 } \
		else n++ } \
		END { for (i = 1; i <= m; i++) if (!(keys[i] in exists)) { \
			printf "reach.allow:%d: %s names no function: delete the line\n", line[keys[i]], keys[i]; bad = 1 } \
			if (!bad) printf "make reach: all %d unreached functions are listed in reach.allow\n", n; exit bad }' \
		reach.allow $(REACH_DIR)/out/funcs.txt

# Machine-readable results of every experiment for this revision — the
# benchmark-trajectory artifact CI uploads (BENCH_<rev>.json per PR).
bench-json:
	$(GO) run ./cmd/sdmbench -json all > BENCH_$(REV).json

# The committed baseline the current tree is diffed against (tracked
# files only, so locally generated BENCH_<rev>.json outputs never shadow
# it; override with BENCH_BASELINE=...). Repo policy: exactly one
# baseline is committed at a time — replace it to re-baseline.
BENCH_BASELINE ?= $(shell git ls-files 'BENCH_*.json' 2>/dev/null)

# The results file bench-gate holds against the baseline. The default is
# regenerated on every call; name an existing file to diff that one instead
# (CI passes the BENCH_<sha>.json `make bench-json` just wrote).
BENCH_CURRENT ?= bench-current.json

.PHONY: bench-current.json
bench-current.json:
	$(GO) run ./cmd/sdmbench -json all > $@

bench-baseline:
	@set -- $(BENCH_BASELINE); test $$# -eq 1 || { \
		echo "expected exactly one committed BENCH_*.json baseline, got: '$(BENCH_BASELINE)'" >&2; exit 1; }

# The CI gate, runnable locally (CI's "Benchmark diff" step is this target
# on its own BENCH_<sha>.json): every experiment row is virtual time, so
# every report is held to the baseline exactly — a changed, added, removed or
# repeated id fails until the baseline is deliberately replaced.
bench-gate: bench-baseline $(BENCH_CURRENT)
	$(GO) run ./cmd/benchdiff $(BENCH_BASELINE) $(BENCH_CURRENT)

# Wall-clock profiles of the scale-up path: a 64-host metered fleet under
# sdmcluster with CPU + heap profiles. Phases carry pprof labels
# (sdm_phase=route+admit/exec/migrate); slice them with e.g.
#   go tool pprof -tagfocus sdm_phase=exec cpu.pprof
# Per-layer CPU (ROADMAP 9(a)): one `sdmbench -cpuprofile` run over every
# experiment, the flat% of `go tool pprof -top -nodefraction=0` folded by the
# innermost frame's package (sdm/internal/<pkg>), with one row each for
# runtime, math and everything else ("other"). Writes under LAYERS_DIR.
LAYERS_DIR ?= $(or $(TMPDIR),/tmp)/sdm-layers

layers:
	@rm -rf $(LAYERS_DIR) && mkdir -p $(LAYERS_DIR)
	@$(GO) build -o $(LAYERS_DIR)/sdmbench ./cmd/sdmbench
	@$(LAYERS_DIR)/sdmbench -cpuprofile $(LAYERS_DIR)/cpu.pprof all > $(LAYERS_DIR)/out.txt
	@$(GO) tool pprof -top -nodefraction=0 $(LAYERS_DIR)/sdmbench $(LAYERS_DIR)/cpu.pprof 2>/dev/null \
		| awk '/^Showing nodes/ { print } / flat%/ { on = 1; next } \
			on && $$2 ~ /%$$/ { p = $$2; sub("%", "", p); n = $$6; \
				if (n ~ /^sdm\/internal\//) { sub("^sdm/internal/", "", n); sub("[./].*", "", n) } \
				else if (n ~ /^(runtime|internal\/runtime)[.\/]/) n = "runtime"; \
				else if (n ~ /^math[.\/]/) n = "math"; else n = "other"; \
				f[n] += p; t += p } \
			END { for (k in f) printf "%7.1f %% %s\n", f[k], k | "sort -rn"; close("sort -rn"); printf "%7.1f %% total\n", t }'

profile:
	$(GO) run ./cmd/sdmcluster -hosts 64 -qps 4000 -queries 8000 -policy sticky \
		-metrics metrics.txt -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof, mem.pprof, metrics.txt"

ci: build vet lint fmt-check loc-check test race examples-check bench
