# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-crypto bench-ledger fmt-check ci experiments experiments-check quickstart clean fuzz-smoke chaos mutate

all: build vet test

# Fail if any file needs gofmt (same check CI runs).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Reproduce the full CI pipeline (.github/workflows/ci.yml) locally:
# every gating step of every job there is one of these targets.
ci: fmt-check build vet test experiments-check race bench-smoke fuzz-smoke chaos bench-ledger mutate

# 30 seconds of coverage-guided fuzzing per untrusted-input decoder,
# then per differential target: the hand-written wire codecs against
# the rlp reflection oracle, and the hand-written arithmetic (the
# secp256k1 field, scalar and point code against math/big and the
# oracle; the snappy encoder against its own decoder; the census
# daemon's incremental publish against its from-scratch oracle; the
# measurement log's JSON encoder and the census's node body against
# encoding/json; an rlpx Conn pair against the payloads sent through
# the scratch buffers every message reuses; the by-value AES-CTR
# stream against crypto/cipher.NewCTR). Each target also replays its
# committed regression corpus first.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzWireVsOracle -fuzztime=$(FUZZTIME) ./internal/rlp
	go test -run='^$$' -fuzz=FuzzDecodePacket -fuzztime=$(FUZZTIME) ./internal/discv4
	go test -run='^$$' -fuzz=FuzzReadHello -fuzztime=$(FUZZTIME) ./internal/devp2p
	go test -run='^$$' -fuzz=FuzzDecodeDisconnect -fuzztime=$(FUZZTIME) ./internal/devp2p
	go test -run='^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/snappy
	go test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/snappy
	go test -run='^$$' -fuzz=FuzzConnRoundTrip -fuzztime=$(FUZZTIME) ./internal/rlpx
	go test -run='^$$' -fuzz=FuzzStreamVsStdlib -fuzztime=$(FUZZTIME) ./internal/crypto/ctr
	go test -run='^$$' -fuzz=FuzzFieldArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1
	go test -run='^$$' -fuzz=FuzzScalarArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1
	go test -run='^$$' -fuzz=FuzzPointArithmetic -fuzztime=$(FUZZTIME) ./internal/crypto/secp256k1
	go test -run='^$$' -fuzz=FuzzFoldVsOracle -fuzztime=$(FUZZTIME) ./internal/census
	go test -run='^$$' -fuzz=FuzzAppendNode -fuzztime=$(FUZZTIME) ./internal/census
	go test -run='^$$' -fuzz=FuzzAppendJSON -fuzztime=$(FUZZTIME) ./internal/nodefinder/mlog

# The chaos suite under the race detector: the hostile peer taxonomy
# (each kind over a pipe and loopback TCP, held to its bucket and to
# SimDialer), the hostile world crawled both ways (outbound dials and
# inbound connections, no hostile STATUS in the census) + the mixed
# honest/hostile 215-node crawl.
chaos:
	go test -race -count=1 -run='TestPromotedHostileTaxonomy|TestHostilePopulationCensus' ./internal/simnet
	go test -race -count=1 -run='TestChaosCrawl' ./internal/faultnet

# One-iteration benchmark pass: catches benchmarks that no longer
# compile or panic, without the cost of real measurement. -run='^$'
# keeps the unit tests out of it — they have their own jobs.
.PHONY: bench-smoke
bench-smoke:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# The benchmark ledger as a gate: two seconds of each of its four
# workloads (BENCHMARK.json), but fifteen of crawl-sim, whose ≈6 s
# rounds need that many for a second round and so for its check that
# rounds of one seed agree. A workload exits non-zero unless it is
# `correct` with `failed` = 0 — crawl-sim's counters reconcile with its
# log (1508478 conns / 466012106 log bytes at seed 42), crawl-wire's
# HELLO/STATUS match each node's ground truth, the census workloads
# serve what an offline analysis of the same log computes — and that
# exit status is the whole gate. Timings are printed, not judged: a
# committed figure would be another machine's. Speed claims are paired
# runs of `bash bench/run.sh` on two commits (bench/README.md).
bench-ledger:
	bash bench/run.sh -workload crawl-sim -seconds 15
	bash bench/run.sh -workload crawl-wire -seconds 2
	bash bench/run.sh -workload census-publish -seconds 2
	bash bench/run.sh -workload census-serve -seconds 2

build:
	go build ./...

# Every gate proven to trip: each mutations/*.patch plants one
# violation in a scratch copy of the tree, and the runtime test on its
# `expect:` line must then fail (DESIGN.md "Contracts and their
# gates" maps each contract to its gate and plant). One PASS line per
# patch.
mutate:
	bash mutations/run.sh

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

# Crypto hot-path benchmarks, measured (not part of `make ci`).
bench-crypto:
	go test -run='^$$' -bench=. -benchmem ./internal/crypto/...
	go test -run='^$$' -bench=Packet -benchmem ./internal/discv4
	go test -run='^$$' -bench=FrameRoundTrip -benchmem ./internal/rlpx

# Regenerate every table/figure and EXPERIMENTS.md (full scale).
experiments:
	go run ./cmd/experiments -out EXPERIMENTS.md

# EXPERIMENTS.md must be what `make experiments` writes (seed 2018,
# full scale, ≈21 s), byte for byte: a change that moves a row
# regenerates the file and lists the moved rows in CHANGES.md.
experiments-check:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	go run ./cmd/experiments -out "$$tmp" >/dev/null && \
	if ! cmp "$$tmp" EXPERIMENTS.md; then \
		diff -u EXPERIMENTS.md "$$tmp" | head -40; \
		echo "EXPERIMENTS.md is stale: run make experiments"; exit 1; \
	fi

# End-to-end crawl over real sockets.
quickstart:
	go run ./examples/quickstart

clean:
	go clean ./...
