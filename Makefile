# spstream — build, test and reproduction targets.

GO ?= go

# Build identification stamped into every binary (internal/version).
VERSION   ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT    ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
BUILDDATE ?= $(shell date -u +%Y-%m-%dT%H:%M:%SZ)
LDFLAGS   = -ldflags "-X spstream/internal/version.Version=$(VERSION) \
	-X spstream/internal/version.Commit=$(COMMIT) \
	-X spstream/internal/version.BuildDate=$(BUILDDATE)"

.PHONY: all build test race cover bench bench-compare benchcmp bench-go bench-ooc threshold lint repro repro-measure fuzz e2e wal-chaos cluster-chaos loc clean

all: build test

build:
	$(GO) build $(LDFLAGS) ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Reproducible benchmark pipeline: MTTKRP kernel grid (lock / plan /
# CSF, ns/op + B/op + allocs/op + effective GFLOP/s, worker sweep up to
# GOMAXPROCS) and end-to-end slices on the plan, written to
# BENCH_PR10.json and compared against the previous committed
# baseline, then the out-of-core flat-memory records are appended (the
# ooc experiment preserves the bench records already in the file).
# BENCH_BASE resolves to the newest committed BENCH_PR*.json;
# `make bench-compare` diffs a fresh run against it (advisory: warns
# past 10%, never fails).
BENCH_BASE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)

bench:
	$(GO) run ./cmd/paperbench -exp bench -benchjson BENCH_PR10.json -compare BENCH_PR6.json
	$(GO) run ./cmd/paperbench -exp ooc -benchjson BENCH_PR10.json

# Out-of-core acceptance gate: stream a slice grown to 100× nonzeros
# under a fixed -mem-budget and HARD-fail if the sampled heap
# high-water exceeds 1.25× the budget (plus an advisory streamed/
# in-memory throughput ratio on the 1× config). Fresh results land in
# bench_ooc_fresh.json; the compare against the committed baseline is
# advisory.
bench-ooc:
	$(GO) run ./cmd/paperbench -exp ooc -benchjson bench_ooc_fresh.json -compare $(BENCH_BASE)

bench-compare:
	$(GO) run ./cmd/paperbench -exp bench -benchjson bench_fresh.json -compare $(BENCH_BASE)

# Per-config speedup table between two committed bench files:
#   make benchcmp OLD=BENCH_PR5.json NEW=BENCH_PR6.json
OLD ?= BENCH_PR5.json
NEW ?= BENCH_PR6.json
benchcmp:
	$(GO) run ./cmd/paperbench -exp benchcmp -old $(OLD) -new $(NEW)

# Raw go test micro-benchmarks across all packages.
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Short-mode threshold calibration sweep (baselines.DefaultShortModeThreshold).
threshold:
	$(GO) run ./cmd/paperbench -exp threshold

# Static analysis beyond vet. The extra tools are optional locally (CI
# installs them); absent tools are skipped, not failed.
lint:
	$(GO) vet ./...
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "govulncheck not installed; skipping"

# Regenerate every table and figure of the paper (model mode) plus the
# machine-readable CSV series under docs/csv/.
repro:
	$(GO) run ./cmd/paperbench -exp all -csv docs/csv | tee docs/paperbench_model.txt

# Measure the real kernels on this host (worker sweep up to GOMAXPROCS).
repro-measure:
	$(GO) run ./cmd/paperbench -exp all -mode measure -scale 0.1 -slices 2 | tee docs/paperbench_measure.txt

# End-to-end smoke of the serving daemon: builds cmd/spstreamd, runs it
# through overload (429), breaker-open (503), SIGTERM drain/checkpoint
# and resume phases over real HTTP, all under the race detector.
e2e:
	$(GO) test -race -run 'TestE2E' -v ./cmd/spstreamd/

# Durable-backlog chaos: disk faults (short writes, failed fsyncs, torn
# records, ENOSPC) against the spill WAL, exact accounting under
# concurrent producers, and the SIGKILL-and-replay e2e — all under the
# race detector.
wal-chaos:
	$(GO) test -race -run 'TestSpill|TestShortWrite|TestFailedSync|TestTorn|TestENOSPC' -v ./internal/ingest/ ./internal/resilience/faultinject/
	$(GO) test -race ./internal/ingest/wal/
	$(GO) test -race -run 'TestWALSIGKILLReplay' -v ./cmd/spstreamd/

# Sharded-cluster chaos: real binaries, 3 shards behind the gateway,
# SIGKILL one mid-stream, assert degraded-but-available reads (partial
# merges with exact missing row ranges), restart the shard (WAL +
# checkpoint replay) and prove the merged model is bit-identical to an
# uncrashed single-node control — all under the race detector.
cluster-chaos:
	$(GO) test -race -run 'TestClusterChaos' -v ./cmd/spstream-gateway/
	$(GO) test -race ./internal/cluster/ ./internal/serve/httpx/

fuzz:
	$(GO) test -fuzz FuzzRestoreState -fuzztime 30s ./internal/core/
	$(GO) test -fuzz FuzzRemapRoundTrip -fuzztime 30s ./internal/mttkrp/
	$(GO) test -fuzz FuzzReadTNS -fuzztime 30s ./internal/sptensor/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/sptensor/
	$(GO) test -fuzz FuzzCoalesce -fuzztime 30s ./internal/sptensor/
	$(GO) test -fuzz FuzzBlockReader -fuzztime 30s ./internal/sptensor/ooc/
	$(GO) test -fuzz FuzzParseEvent -fuzztime 30s ./cmd/watch/
	$(GO) test -fuzz FuzzWALRecord -fuzztime 30s ./internal/ingest/wal/
	$(GO) test -fuzz FuzzWALSegment -fuzztime 30s ./internal/ingest/wal/
	$(GO) test -fuzz FuzzShardIngestResponse -fuzztime 30s ./internal/cluster/

# Non-test Go lines per package under internal/ and cmd/, then the
# repository total outside bench/ (the benchmark is not the program):
# the before/after a simplicity change reports.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u | while read d; do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; done
	@printf '%6d total (non-test .go outside bench/)\n' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec cat {} + | wc -l)

clean:
	$(GO) clean -testcache -fuzzcache
