# Single source of truth for build/verify commands: CI invokes these same
# targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: build test race bench bench-json conformance fuzz vet fmt-check docs-check links-check examples perfbench-test service-smoke cluster-smoke chaos-smoke storage-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build and run every examples/ program: the examples are executable
# documentation of the public pdb API, so a pass means the documented
# usage actually works end to end.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do \
		[ -f "$$d/main.go" ] || continue; \
		echo "== running $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Print non-test and test Go line counts (perfbench/ excluded): the
# measure of code paths removed while every test and benchmark holds.
loc:
	./scripts/loc.sh

# Vet and test the benchmark harness. perfbench is a separate module
# (replace repro => ../), so `go test ./...` never compiles it, yet it
# imports the algebra/core/pdb APIs and must break loudly when they move.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Race-check everything: the scheduler, the mergeable estimator, the
# parallel engine, the shared cross-query engine cache, and the HTTP
# service (whose tests hammer one engine from many goroutines).
race:
	$(GO) test -race ./...

# Build pdbserve, boot it on the examples/ data, and drive it end to end
# with curl (JSON rows, cache reuse, limit errors, graceful shutdown).
service-smoke:
	./scripts/service-smoke.sh

# Boot two shard processes and a coordinator, assert the coordinator's
# query output is byte-identical to a single-node server's, reload quotas
# via SIGHUP, kill a shard and require bit-identical failover (and a fast
# typed error only once every shard is gone).
cluster-smoke:
	./scripts/cluster-smoke.sh

# Deterministic chaos: three shards behind seeded fault proxies (resets,
# latency), kill and restore one mid-sweep, assert byte-identical output,
# breaker trip + probe re-admission, and hedging — all via /metrics.
chaos-smoke:
	./scripts/chaos-smoke.sh

# Storage-layer smoke: pdbcli convert over the examples/ data, byte-stable
# CSV ↔ pdbstore round trip, bit-identical query output across formats
# (CLI and pdbserve NDJSON), and out-of-core -spill-dir completion of an
# over-budget join.
storage-smoke:
	./scripts/storage-smoke.sh

# One pass over every benchmark — the trajectory baseline CI uploads as an
# artifact; not a statistically stable measurement. -benchmem puts B/op
# and allocs/op into the baseline so the benchstat gate can flag
# allocation regressions on the exact-algebra hot path, not just time.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# Render the full benchmark sweep as BENCH_koch08.json — the committed
# structured snapshot (and a CI artifact). Includes the stratified
# Karp-Luby trial-savings numbers reported via b.ReportMetric.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./... > bench-json.tmp
	$(GO) run ./scripts/benchjson < bench-json.tmp > BENCH_koch08.json
	@rm -f bench-json.tmp

# Exhaustive statistical conformance sweep: many seeds through the
# workload corpus on both estimation paths, asserting empirical (ε, δ)
# coverage. The quick form already runs inside `make test`; this form is
# behind a build tag purely for time.
conformance:
	$(GO) test -tags conformance -v ./internal/conformance/

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/parser
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzClientHandshake -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzDecodeSampleResult -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzStore -fuzztime=10s ./internal/store

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every package (internal, cmd, examples, root) must carry a package-level
# godoc comment; `go list`'s .Doc field is empty when one is missing.
docs-check:
	@missing="$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)"; \
	if [ -n "$$missing" ]; then \
		echo "packages missing a godoc package comment:"; \
		echo "$$missing"; exit 1; fi

# Every relative Markdown link must resolve to an existing file, so the
# docs set (README, docs/*, examples/README) cannot silently rot.
links-check:
	./scripts/check-links.sh

ci: vet fmt-check docs-check links-check build test perfbench-test race fuzz examples service-smoke cluster-smoke chaos-smoke storage-smoke
