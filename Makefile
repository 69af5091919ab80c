GO ?= go

.PHONY: all build vet lint test race race-hot bench fuzz-smoke benchingest ingest-smoke ingest-batch-smoke benchregion region-smoke benchwatch benchwatch-smoke soak soak-short perfbench-check check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Run go vet plus the phaselint suite (internal/lint): single-owner leak,
# determinism, hot-path allocation, payload-switch exhaustiveness,
# snapshot-completeness, bounded-state, batch-wrapper and atomic-discipline
# checks over the whole module.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/phaselint ./...

test:
	$(GO) test ./...

# Full suite under the race detector, including the concurrent-sweep
# tests that exercise >= 4 simultaneous (executor, monitor, pipeline)
# stacks.
race:
	$(GO) test -race ./...

# Race-detector pass over just the concurrency-bearing packages — the
# ring/fleet ingestion path, the pipeline sweeps and the soak harness.
# This is what CI's dedicated race job runs, decoupled from the fast
# tier-1 job so a slow race schedule never blocks the main signal.
race-hot:
	$(GO) test -race ./internal/ingest/... ./internal/pipeline/... ./internal/soak/...

# Smoke-run the hot-path benchmarks: one iteration each, with allocation
# reporting (the allocs/op gate itself lives in TestSystemRunAllocs and
# pipeline.TestHotPathAllocs, which run under `make test`).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSystemRun|BenchmarkFig13' -benchtime 1x -benchmem ./.
	$(GO) test -run '^$$' -bench 'BenchmarkObserve|BenchmarkPearson' -benchtime 1x -benchmem ./internal/lpd/ ./internal/stats/
	$(GO) test -run '^$$' -bench 'BenchmarkDetectorObserve' -benchtime 1x -benchmem ./internal/changepoint/
	$(GO) test -run '^$$' -bench 'BenchmarkProcessOverflow' -benchtime 1x -benchmem ./internal/region/

# Run each native fuzz target for 10s: the early-stopping change-point
# engine against its full-permutation reference on arbitrary series
# (NaN/Inf included), detector Restore on arbitrary bytes (error and an
# untouched detector, or a byte-equal re-snapshot), and the region
# monitor's hashed per-distinct-PC distribution against the per-sample
# list path on arbitrary sample buffers. New-coverage inputs are
# minimized for at most 1s, so minimizing cannot eat the run. A failing
# input is written under the package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDetectMatchesReference$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/changepoint/
	$(GO) test -run '^$$' -fuzz '^FuzzDetectorRestore$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/changepoint/
	$(GO) test -run '^$$' -fuzz '^FuzzDistributeMatchesList$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/region/

# Regenerate the committed ingest throughput baseline: streams/sec through
# full detector stacks at 1/4/16/64 shards, per-push vs batched, over a
# detector-bound and a transport-bound workload (median of 3 reps each),
# with cross-run digest verification before any number is reported.
benchingest:
	$(GO) run ./cmd/benchingest > BENCH_ingest.json

# Short multi-shard ingest smoke for `make check`/CI: 64 streams x 5k
# intervals through the per-item push path at every shard count, failing
# unless all per-stream verdict digests agree across topologies
# (throughput JSON discarded).
ingest-smoke:
	$(GO) run ./cmd/benchingest -mode perpush -reps 1 -intervals 5000 > /dev/null

# Batched-path twin of ingest-smoke: the same 64-stream workload driven
# through PushBatchWait (16-interval batches) at every shard count, with
# the same cross-topology digest gate.
ingest-batch-smoke:
	$(GO) run ./cmd/benchingest -mode batched -reps 1 -intervals 5000 > /dev/null

# Regenerate the committed sample-distribution baseline: ns/interval and
# samples/sec for list vs tree vs batched epoch at 4/64/512 regions, plus
# the end-to-end fleet delta, with cross-structure digest verification
# before any number is reported.
benchregion:
	$(GO) run ./cmd/benchregion > BENCH_region.json

# Short distribution smoke for `make check`/CI: tiny runs of the same
# harness, failing unless all three structures' verdict digests agree
# (throughput JSON discarded).
region-smoke:
	$(GO) run ./cmd/benchregion -smoke > /dev/null

# Perf-regression gate (cmd/benchwatch): run the E-divisive change-point
# engine over the committed BENCH_*.json trajectory (every committed
# version plus the working tree) and fail when a regime change lands on
# the latest PR. Tolerates short or shallow history by passing
# vacuously, so it is safe in `make check` from day one.
benchwatch:
	$(GO) run ./cmd/benchwatch

# Benchwatch smoke: the injected-step fixture must gate (nonzero exit)
# and the flat fixture must pass — proving the gate can actually fire
# before we trust its silence.
benchwatch-smoke:
	! $(GO) run ./cmd/benchwatch -series cmd/benchwatch/testdata/step.json > /dev/null
	$(GO) run ./cmd/benchwatch -series cmd/benchwatch/testdata/flat.json > /dev/null

# Long-run hardening harness (cmd/soak): millions of intervals through
# the full detector stack, asserting a steady heap and byte-identical
# verdict streams across mid-run kill/restore — first single-stream, then
# at fleet scale (8 streams behind an ingest.Fleet, reference on 1 shard
# vs kill/restore on 4). `soak` is the full acceptance run; `soak-short`
# is the minutes-free variant folded into `make check` and CI.
soak:
	$(GO) run ./cmd/soak -intervals 2000000

soak-short:
	$(GO) run ./cmd/soak -intervals 60000

# Vet and test the benchmark module. _perfbench has its own go.mod (it
# replaces regionmon with this checkout), so the root ./... skips it; this
# target is what catches an API change that would break the benchmark.
perfbench-check:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

check: build lint test perfbench-check bench fuzz-smoke ingest-smoke ingest-batch-smoke region-smoke benchwatch benchwatch-smoke soak-short
