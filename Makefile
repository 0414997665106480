# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-crypto bench-crawl bench-wire bench-serve bench-census fmt-check ci experiments quickstart clean fuzz-smoke chaos lint lint-bench

all: build vet test

# Fail if any file needs gofmt (same check CI runs).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Reproduce the full CI pipeline (.github/workflows/ci.yml) locally.
ci: fmt-check build vet lint lint-bench test race bench-smoke fuzz-smoke chaos bench-wire bench-crawl bench-serve bench-census

# 30 seconds of coverage-guided fuzzing per untrusted-input decoder,
# then per differential target of the hand-written arithmetic (the
# secp256k1 field, scalar and point code against math/big and the
# oracle; the snappy encoder against its own decoder). Each target
# also replays its committed regression corpus first.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzPlanVsOracleStruct -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzPlanVsOracleSlice -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzPlanVsOracleBigInt -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzPlanVsOracleCustom -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzDecodePacket -fuzztime=$(FUZZTIME) ./internal/discv4
	go test -run='^$$' -fuzz=FuzzReadHello -fuzztime=$(FUZZTIME) ./internal/devp2p
	go test -run='^$$' -fuzz=FuzzDecodeDisconnect -fuzztime=$(FUZZTIME) ./internal/devp2p
	go test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/snappy
	go test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/snappy
	go test -run='^$$' -fuzz=FuzzFieldArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1
	go test -run='^$$' -fuzz=FuzzScalarArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1
	go test -run='^$$' -fuzz=FuzzPointArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1

# The faultnet chaos suite: hostile peer taxonomy + the mixed
# honest/hostile 215-node crawl, under the race detector.
chaos:
	go test -race -count=1 -run='TestHostileTaxonomy|TestChaosCrawl' ./internal/faultnet

# One-iteration benchmark pass: catches benchmarks that no longer
# compile or panic, without the cost of real measurement. -run='^$'
# keeps the unit tests out of it — they have their own jobs.
.PHONY: bench-smoke
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# Crawl-at-scale gate: a deterministic-seed 100k-node world crawled to
# census convergence. Emits BENCH_crawl.ci.json (nodes/sec, peak RSS,
# convergence wall-clock) and fails on >60 s wall, >2 GiB RSS, or a
# >20% nodes/sec regression against the committed BENCH_crawl.json.
bench-crawl:
	go run ./cmd/benchcrawl -out BENCH_crawl.ci.json -baseline BENCH_crawl.json

# Wire-codec gate: plan codec vs reflection oracle on the
# handshake-path messages (HELLO, STATUS, discv4 PING). Emits
# BENCH_wire.ci.json and fails if any encode/decode direction falls
# below a 10x allocs/op advantage, or regresses >20% in ns/op against
# the committed BENCH_wire.json.
bench-wire:
	go run ./cmd/benchwire -out BENCH_wire.ci.json -baseline BENCH_wire.json

# Census-serving gate: the handler/concurrency/soak suite under -race,
# then a 30 s benchserve run with 10k in-process clients against a
# snapshot that republishes mid-load. Emits BENCH_serve.ci.json and
# fails on a >0.1% error rate, a >20% req/s regression, or a p99 more
# than 20% over the committed BENCH_serve.json.
bench-serve:
	go test -race -count=1 ./internal/census
	go run ./cmd/benchserve -duration 30s -out BENCH_serve.ci.json -baseline BENCH_serve.json

# Census ledger check: two seconds each of the benchmark ledger's
# write-side (census-publish) and read-side (census-serve) workloads.
# Each run reconciles what the daemon serves with an offline analysis
# of the same log and exits non-zero on any mismatch; that is the whole
# gate. Timings are printed, not judged: they are another machine's.
bench-census:
	bash bench/run.sh -workload census-publish -seconds 2
	bash bench/run.sh -workload census-serve -seconds 2

build:
	go build ./...

# Repo-specific static invariants (see DESIGN.md "Static invariants"):
# bounded wire allocations, clock discipline, taxonomy coverage, no
# locks across conn I/O, conn Close on every path, goroutine
# termination signals, deadlines on dialed-conn I/O, RLP wire
# symmetry, frozen-after-publish, cross-goroutine shared state,
# bounded channel discipline, interprocedural wire-taint tracking.
# -cache reuses the previous run when no source changed
# (content-hashed; hit rate reported on stderr).
lint:
	go run ./cmd/repolint -cache ./...

# lint-bench times the lint gate itself: a cold run then a warm cached
# run, against a scratch cache file so the benchmark never deletes or
# overwrites the developer's warm .repolint.cache. The warm run must
# stay under 10 s — the content-hash cache is what keeps twelve
# interprocedural analyzers cheap enough to sit on every push, so a
# slow warm run is a developer-loop regression even when findings stay
# clean.
lint-bench:
	@set -e; cachefile=$$(mktemp -t repolint-bench.XXXXXX); rm -f "$$cachefile"; \
	trap 'rm -f "$$cachefile"' EXIT; \
	start=$$(date +%s%N); go run ./cmd/repolint -cache -cache-file "$$cachefile" ./... >/dev/null; \
	cold=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	start=$$(date +%s%N); go run ./cmd/repolint -cache -cache-file "$$cachefile" ./... >/dev/null; \
	warm=$$(( ($$(date +%s%N) - start) / 1000000 )); \
	echo "lint-bench: cold $${cold} ms, warm $${warm} ms (warm budget 10000 ms)"; \
	if [ $$warm -gt 10000 ]; then echo "lint-bench: FAIL: warm cached run exceeded 10 s"; exit 1; fi

vet:
	go vet ./...

test:
	go test ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface; the seed is printed for reproduction.
race:
	go test -race -shuffle=on ./...

bench:
	go test -bench=. -benchmem ./...

# Crypto hot-path benchmarks: the numbers recorded in
# BENCH_crypto.json come from this target.
bench-crypto:
	go test -run='^$$' -bench=. -benchmem ./internal/crypto/...
	go test -run='^$$' -bench=Packet -benchmem ./internal/discv4
	go test -run='^$$' -bench=FrameRoundTrip -benchmem ./internal/rlpx

# Regenerate every table/figure and EXPERIMENTS.md (full scale).
experiments:
	go run ./cmd/experiments -out EXPERIMENTS.md

# End-to-end crawl over real sockets.
quickstart:
	go run ./examples/quickstart

clean:
	go clean ./...
