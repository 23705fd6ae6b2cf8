# Build and verification entry points. "make verify" is the tier-1 gate
# (build + tests); "make ci" adds the Go-side static analysis and the race
# detector on the concurrency-heavy packages.

GO ?= go

.PHONY: build test vet nopanic staticcheck vulncheck fmtcheck lint race verify ci serve-smoke bench bench-smoke bench-json bench-table1 bench-table1-smoke bench-fig5 bench-fig5-smoke bench-rare bench-rare-smoke difftest soundness fuzz-smoke fuzz-long

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet: nopanic
	$(GO) vet ./...

# nopanic is the repo-local vet pass: no new panic calls in the packages
# that run inside sampling workers (see tools/analyzers/nopanic).
nopanic:
	$(GO) run ./tools/analyzers/nopanic internal/rng internal/stats internal/network internal/sim

# staticcheck / vulncheck run the external Go analyzers when they are on
# PATH and degrade to a notice when they are not: nothing is installed on
# demand, so hermetic local builds still pass while CI (which installs
# pinned versions) gets the full checks.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI installs a pinned version)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs a pinned version)"; \
	fi

# fmtcheck fails if any file needs gofmt.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs slimlint over every checked-in SLIM fixture that should be
# clean, as a smoke test of the analyzer binary itself.
lint: build
	$(GO) run ./cmd/slimlint internal/lint/testdata/clean.slim

# race re-runs the scheduler- and worker-pool-heavy packages under the
# race detector (the fair-round collector, and the sampling and splitting
# pipelines and estimators it feeds), plus the daemon package whose caches
# share compiled models across request-handling goroutines, and the
# runtime and exact back ends whose immutable network.Runtime every worker
# shares, and the concurrent CheckCTMC calls that share one model's
# symmetry reduction.
race:
	$(GO) test -race ./internal/parallel/ ./internal/sim/ ./internal/splitting/ ./internal/stats/ ./internal/serve/ ./internal/network/ ./internal/ctmc/ ./internal/symmetry/
	$(GO) test -race -run CheckCTMC .

# serve-smoke boots the slimserve daemon on an ephemeral port, POSTs the
# same model twice and asserts the second response reports a
# compiled-model cache hit with a byte-identical report (docs/SERVE.md).
serve-smoke:
	$(GO) test -count=1 -run TestServeSmoke ./cmd/slimserve/

# difftest pushes the committed 300+-model corpus through the full
# differential oracle hierarchy (generator -> lint -> round-trip ->
# strategy agreement -> exact CTMC cross-check -> splitting relative
# band). The non -short form also explores fresh seeds; see
# docs/TESTING.md.
difftest:
	$(GO) test -count=1 ./internal/difftest/ ./internal/modelgen/

# soundness runs the fresh-seed tiers of the nightly job: a static 0/1
# verdict must agree with the exact analyses, dead-transition pruning must
# leave every sampled trace bit-identical, on fresh rare-event models the
# splitting estimate must hold its relative band against the exact CTMC
# reference, and on fresh symmetric replica farms the counter-abstracted
# quotient must match the explicit chain to 1e-12.
soundness:
	$(GO) test -count=1 -run 'TestAbsintSoundnessFreshSweep|TestPruningEngagesAndStaysTransparent|TestSplittingSoundnessFreshSweep|TestSymmetrySoundnessFreshSweep' ./internal/difftest/

# fuzz-smoke runs each native fuzz target for 30s — enough to re-cover
# the committed corpus and take a short random walk beyond it.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 30s -run '^$$' ./internal/slim/
	$(GO) test -fuzz FuzzEvalExpr -fuzztime 30s -run '^$$' ./internal/difftest/
	$(GO) test -fuzz FuzzWindowTimeInvariant -fuzztime 30s -run '^$$' ./internal/expr/

# fuzz-long is the nightly form: fresh differential seeds across every
# generator class (any discrepancy is shrunk into the regression corpus
# and fails the run with exit 2), then a longer run of each native fuzz
# target. Tune with FUZZ_N / FUZZ_TIME.
FUZZ_N ?= 2000
FUZZ_TIME ?= 10m
fuzz-long: build
	$(GO) run ./cmd/slimfuzz -class all -n $(FUZZ_N) -q
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZ_TIME) -run '^$$' ./internal/slim/
	$(GO) test -fuzz FuzzEvalExpr -fuzztime $(FUZZ_TIME) -run '^$$' ./internal/difftest/
	$(GO) test -fuzz FuzzWindowTimeInvariant -fuzztime $(FUZZ_TIME) -run '^$$' ./internal/expr/

verify: build test

ci: verify vet staticcheck vulncheck fmtcheck race lint difftest serve-smoke bench-smoke bench-table1-smoke bench-fig5-smoke bench-rare-smoke fuzz-smoke

# BENCH_PKGS are the packages carrying the hot-path micro-benchmarks
# (engine step, move-set composition, compiled expression evaluation, pooled
# splitting clones, explicit and quotient CTMC construction, lumping, and
# the single-clock zone analyzer)
# and their AllocsPerRun regression gates.
BENCH_PKGS = ./internal/sim/ ./internal/network/ ./internal/expr/ ./internal/splitting/ ./internal/ctmc/ ./internal/symmetry/ ./internal/bisim/ ./internal/zone/

# bench runs the micro-benchmarks at a publishable benchtime.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=1 $(BENCH_PKGS)

# bench-smoke is the CI form: a short pass over every benchmark (so they
# cannot rot) plus the allocation regression gates (allocs and bytes) under
# the race detector.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 10x -count=1 $(BENCH_PKGS)
	$(GO) test -race -run 'Allocs|Bytes' -count=1 $(BENCH_PKGS)

# bench-json regenerates the machine-readable perf trajectory: one
# BENCH_<experiment>.json per case-study experiment, in the report schema
# of docs/OBSERVABILITY.md (see EXPERIMENTS.md for the workflow).
bench-json: build bench-fig5 bench-table1
	$(GO) run ./cmd/slimbench -experiment generators -report BENCH_generators.json
	$(GO) run ./cmd/slimbench -experiment rare-events -report BENCH_rare-events.json

# bench-table1 regenerates the Table I artifact at the defaults: the
# counter-abstracted quotient flow to N=14, the explicit flow and
# simulator to N=8 (see docs/SYMMETRY.md for the quotient semantics).
bench-table1: build
	$(GO) run ./cmd/slimbench -experiment table1 -report BENCH_table1.json

# bench-table1-smoke is the CI form: small sizes, a tiny explicit window
# and loose simulator accuracy prove all three table1 flows — including
# the quotient-vs-explicit cross-check — end to end in seconds without
# touching the committed artifact.
bench-table1-smoke: build
	$(GO) run ./cmd/slimbench -experiment table1 -max-size 6 -explicit-max 4 -sim-max 2 -delta 0.2 -eps 0.1 >/dev/null

# bench-fig5 regenerates the Fig. 5 sweep artifacts: one shared-path
# sweep per strategy (docs/SWEEPS.md) plus, with -baseline, the per-bound
# loop it replaced — the JSON carries per-cell rows ("u=.../strategy=...")
# and per-strategy timing rows ("strategy=..." with sweepMs, baselineMs,
# speedup, sharedPaths, baselinePaths).
bench-fig5: build
	$(GO) run ./cmd/slimbench -experiment fig5-permanent -baseline -report BENCH_fig5-permanent.json
	$(GO) run ./cmd/slimbench -experiment fig5-recoverable -baseline -report BENCH_fig5-recoverable.json

# bench-fig5-smoke is the CI form: a tiny sweep (2 bounds, loose
# accuracy) with the baseline comparison enabled, proving the shared-path
# flow end to end in a couple of seconds without touching the committed
# artifacts.
bench-fig5-smoke: build
	$(GO) run ./cmd/slimbench -experiment fig5-permanent -points 2 -umax 400 -delta 0.2 -eps 0.1 -baseline >/dev/null

# bench-rare regenerates the rare-events artifact alone: the Chernoff
# degradation sweep plus the plain-MC vs importance-splitting comparison
# on the pinned modelgen rare-event model (see docs/SPLITTING.md).
bench-rare: build
	$(GO) run ./cmd/slimbench -experiment rare-events -report BENCH_rare-events.json

# bench-rare-smoke is the CI form: loose accuracy and a small splitting
# effort prove the plain-MC vs splitting flow end to end in seconds
# without touching the committed artifact.
bench-rare-smoke: build
	$(GO) run ./cmd/slimbench -experiment rare-events -delta 0.2 -eps 0.1 -effort 64 >/dev/null
