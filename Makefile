# Targets mirror the CI pipeline (.github/workflows/ci.yml).

GO ?= go
REV ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

.PHONY: all build vet lint fmt-check test race loc loc-check bench bench-scale bench-e2e bench-e2e-smoke bench-json bench-diff bench-gate print-bench-gated print-bench-regress-only profile ci

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

# Non-test, non-bench/, non-testdata Go lines per package and in total —
# the number ROADMAP aim 2 ("the same numbers from the least code") tracks.
# Simplification PRs quote it for parent and change in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The aim-2 ratchet: the tree may not outgrow the last simplification PR's
# `make loc` total. Raising LOC_BUDGET is allowed — as a one-line diff a
# reviewer sees; lower it whenever a PR shrinks the tree.
LOC_BUDGET = 20306

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
# smoke run; fails when any check does.
bench-e2e-smoke:
	$(GO) run ./bench -smoke -seed 7 -seconds 1

# Machine-readable results of every experiment for this revision — the
# benchmark-trajectory artifact CI uploads (BENCH_<rev>.json per PR).
bench-json:
	$(GO) run ./cmd/sdmbench -json all > BENCH_$(REV).json

# The committed baseline the current tree is diffed against (tracked
# files only, so locally generated BENCH_<rev>.json outputs never shadow
# it; override with BENCH_BASELINE=...). Repo policy: exactly one
# baseline is committed at a time — replace it to re-baseline.
BENCH_BASELINE ?= $(shell git ls-files 'BENCH_*.json' 2>/dev/null)

# Re-run every experiment and print per-benchmark deltas against the
# committed baseline. Warn-only by default; add BENCH_DIFF_FLAGS=-fail-on-change
# to gate on drift locally.
bench-diff:
	@set -- $(BENCH_BASELINE); test $$# -eq 1 || { \
		echo "expected exactly one committed BENCH_*.json baseline, got: '$(BENCH_BASELINE)'" >&2; exit 1; }
	$(GO) run ./cmd/sdmbench -json all > bench-current.json
	$(GO) run ./cmd/benchdiff $(BENCH_DIFF_FLAGS) $(BENCH_BASELINE) bench-current.json

# The experiment ids CI gates at 10% (query-engine and cluster benchmarks;
# the adapt drills drift/rowrange/coord and the slo serving drill stay
# warn-only). This is the single source of truth — the CI workflow reads
# it via `make -s print-bench-gated`.
BENCH_GATED = fig1,tab1,fig3,tab2,fig4,fig5,fig6,tab3,tab4,tab8,tab9,tab10,tab11,cluster,sgl,mmap,deprune,dequant,interop,polling,warmup,update

# Cost-budget ids gated direction-aware: only increases beyond 10% fail
# (the alloc experiment's B/query and allocs/query rows — lower is
# strictly better, so improvements land without a re-baseline).
BENCH_REGRESS_ONLY = alloc

print-bench-gated:
	@echo $(BENCH_GATED)

print-bench-regress-only:
	@echo $(BENCH_REGRESS_ONLY)

# The CI gate, runnable locally: fails on >10% regressions of the gated
# benchmarks against the committed baseline. Allocation-budget rows are
# gated regression-only (growth fails, shrinkage passes).
bench-gate:
	$(MAKE) bench-diff BENCH_DIFF_FLAGS="-tol 10 -fail-on $(BENCH_GATED) -regress-only $(BENCH_REGRESS_ONLY)"

# Wall-clock profiles of the scale-up path: a 64-host metered fleet under
# sdmcluster with CPU + heap profiles. Phases carry pprof labels
# (sdm_phase=route+admit/exec/migrate); slice them with e.g.
#   go tool pprof -tagfocus sdm_phase=exec cpu.pprof
profile:
	$(GO) run ./cmd/sdmcluster -hosts 64 -qps 4000 -queries 8000 -policy sticky \
		-metrics metrics.txt -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof, mem.pprof, metrics.txt"

ci: build vet lint fmt-check loc-check test race bench
