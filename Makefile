GO ?= go

.PHONY: build test race vet bench loc doccheck chaos chaos-leases flight-smoke trace-race wire-fuzz check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages must stay race-clean.
race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' ./

# Non-test Go lines outside benchmark/ — the size ROADMAP aim 2 tracks. A
# simplification PR quotes this number before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l

# Doc comments on vsync/simnet/faults are normative (FAULTS.md, PROTOCOL.md).
doccheck:
	$(GO) test -run TestExportedDocs ./internal/lint/

# The distributed-tracing plane under the race detector: span propagation
# through batching/view changes/failover, the pasoctl trace path, the one
# obs.Ring, and ownership edges from vsync to pasoctl top.
trace-race:
	$(GO) test -race -run 'Trace|Span|Assemble|Ring|Ownership' -count=1 \
		./internal/vsync/ ./internal/obs/... ./internal/core/ ./internal/faults/ ./cmd/pasoctl/

# Coverage-guided fuzzing of the wire codec, the tuple codec inside it, and
# core's command/response codec and client line protocol (80s total
# budget): the decoders must never panic on arbitrary bytes, and every
# accepted frame, tuple, template and command must round-trip bijectively
# (PROTOCOL.md, "Wire format").
wire-fuzz:
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 20s -run '^$$' ./internal/vsync/
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 10s -run '^$$' ./internal/vsync/
	$(GO) test -fuzz FuzzDecodeTuple -fuzztime 10s -run '^$$' ./internal/tuple/
	$(GO) test -fuzz FuzzDecodeTemplate -fuzztime 10s -run '^$$' ./internal/tuple/
	$(GO) test -fuzz FuzzDecodeCommand -fuzztime 10s -run '^$$' ./internal/core/
	$(GO) test -fuzz FuzzDecodeResponse -fuzztime 10s -run '^$$' ./internal/core/
	$(GO) test -fuzz FuzzProtocolParse -fuzztime 10s -run '^$$' ./internal/core/

# Deterministic fault-injection smoke under the race detector; failures
# replay bit-identically from the same seed (README, "Chaos testing").
chaos:
	$(GO) run -race ./cmd/paso-chaos -scenario rolling-crash -seed 42
	$(GO) run -race ./cmd/paso-chaos -scenario flapping-partition -seed 7

# The same seeded rolling-crash schedule with the leased-read fast path
# enabled: the lease must be invisible to the λ−k+1 invariant and the
# A1–A3 semantics checks (EXPERIMENTS.md, E21).
chaos-leases:
	$(GO) run -race ./cmd/paso-chaos -scenario rolling-crash -seed 42 -leases

# Flight-recorder smoke: the slow-coordinator scenario with the recorder
# armed must leave at least one diagnostic bundle whose manifest carries a
# non-empty ownership timeline and a fingerprint (README, "Flight
# recorder"). The jq-free assertion keeps it dependency-light.
flight-smoke:
	rm -rf /tmp/paso-flight-smoke
	$(GO) run ./cmd/paso-chaos -scenario slow-coordinator -seed 42 -flight /tmp/paso-flight-smoke
	@ls /tmp/paso-flight-smoke | grep -q '^b' || { echo "flight-smoke: no bundle captured" >&2; exit 1; }
	@grep -q '"ownership"' /tmp/paso-flight-smoke/*/manifest.json || { echo "flight-smoke: bundle has empty ownership timeline" >&2; exit 1; }
	@grep -q '"fingerprint"' /tmp/paso-flight-smoke/*/manifest.json || { echo "flight-smoke: bundle manifest has no fingerprint" >&2; exit 1; }
	@echo "flight-smoke: OK ($$(ls /tmp/paso-flight-smoke | wc -l) bundle(s))"

check: build vet test race doccheck

clean:
	rm -rf bin/
	$(GO) clean ./...
