GO ?= go

.PHONY: build test race vet bench loc doccheck chaos chaos-leases flight-smoke trace-race wire-fuzz sweep sweep-smoke sweep-check sweep-classes sweep-reads check clean

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
# through batching/view changes/failover plus the pasoctl trace path.
trace-race:
	$(GO) test -race -run 'Trace|Span|Assemble|Audit' -count=1 \
		./internal/vsync/ ./internal/obs/ ./internal/core/ ./internal/faults/ ./cmd/pasoctl/

# Coverage-guided fuzzing of the wire codec and the tuple codec inside it
# (50s total budget): the decoders must never panic on arbitrary bytes, and
# every accepted frame, tuple and template must round-trip bijectively
# (PROTOCOL.md, "Wire format").
wire-fuzz:
	$(GO) test -fuzz FuzzWireRoundTrip -fuzztime 20s -run '^$$' ./internal/vsync/
	$(GO) test -fuzz FuzzSnapshotRoundTrip -fuzztime 10s -run '^$$' ./internal/vsync/
	$(GO) test -fuzz FuzzDecodeTuple -fuzztime 10s -run '^$$' ./internal/tuple/
	$(GO) test -fuzz FuzzDecodeTemplate -fuzztime 10s -run '^$$' ./internal/tuple/

# Full saturation sweep on a real loopback-TCP cluster: an open-loop rate
# ladder with coordinated-omission-safe latencies and per-stage
# attribution, appended to BENCH_paso.json (EXPERIMENTS.md, "Latency
# sweep"). The ladder tops out at 4× the PR 6 knee (32k/s) so the curve
# keeps showing the knee, not the ladder's end.
sweep:
	$(GO) run ./cmd/paso-loadgen -sweep 2000,4000,8000,16000,32000,64000,128000 \
		-rung 2s -out BENCH_paso.json -label "make sweep"

# CI-sized sweep smoke: a two-rung mini-sweep on the simulated LAN under
# the race detector. Fails when the lowest rung cannot achieve 80% of its
# offered rate — the load plane itself must never be the bottleneck at
# trivial rates.
sweep-smoke:
	$(GO) run -race ./cmd/paso-loadgen -transport simnet -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 -out sweep-smoke.json

# Sweep regression gate: run the smoke sweep fresh (no race detector, so
# latencies are honest) into a scratch copy of the trajectory, then diff
# the candidate against the recorded "sweep-smoke seed" point. Exits
# nonzero when the knee drops or any shared rung's p99 blows past the
# slack — the -compare verdict CI gates on. Smoke rungs measure ~1–2ms
# p99s that scheduler noise on shared runners can inflate 10×, so the
# gate combines a 4× slack with a 50ms absolute noise floor: it catches
# knee collapse and order-of-magnitude latency regressions, not jitter.
sweep-check:
	cp BENCH_paso.json /tmp/paso-sweep-check.json
	$(GO) run ./cmd/paso-loadgen -transport simnet -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 \
		-out /tmp/paso-sweep-check.json -label "sweep-smoke candidate"
	$(GO) run ./cmd/paso-loadgen -compare-slack 4 -compare-p99-floor 50 \
		-out /tmp/paso-sweep-check.json \
		-compare "sweep-smoke seed" "sweep-smoke candidate"

# Multi-class scaling gate (EXPERIMENTS.md, E19): two identical simnet
# mini-sweeps into a scratch trajectory — single-class baseline, then 8
# sharded classes with placed coordinators — and a -compare verdict. The
# gate fails when sharding collapses the aggregate knee below the
# single-class knee or blows a shared rung's p99 past the slack; the same
# 4×-slack / 50ms-floor calibration as sweep-check keeps runner jitter
# from flaking it. At these modest rates both modes must sustain every
# rung, so the knees match and any real per-class regression surfaces.
sweep-classes:
	rm -f /tmp/paso-sweep-classes.json
	$(GO) run ./cmd/paso-loadgen -transport simnet -classes 1 -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 \
		-out /tmp/paso-sweep-classes.json -label "classes=1 baseline"
	$(GO) run ./cmd/paso-loadgen -transport simnet -classes 8 -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 \
		-out /tmp/paso-sweep-classes.json -label "classes=8 candidate"
	$(GO) run ./cmd/paso-loadgen -compare-slack 4 -compare-p99-floor 50 \
		-out /tmp/paso-sweep-classes.json \
		-compare "classes=1 baseline" "classes=8 candidate"

# Leased-read gate (EXPERIMENTS.md, E21): two read-heavy simnet
# mini-sweeps into a scratch trajectory — leases off, then the epoch-fenced
# fast path on — and a -compare verdict. The gate fails when leases
# collapse the read-heavy knee below the ordered baseline or blow a shared
# rung's p99 past the slack (same 4×-slack / 50ms-floor calibration as
# sweep-check). Both rungs must also individually sustain 80% of offered.
sweep-reads:
	rm -f /tmp/paso-sweep-reads.json
	$(GO) run ./cmd/paso-loadgen -transport simnet -read-heavy -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 \
		-out /tmp/paso-sweep-reads.json -label "read-heavy leases=off baseline"
	$(GO) run ./cmd/paso-loadgen -transport simnet -read-heavy -leases -sweep 200,400 \
		-rung 500ms -sweep-min-achieved 0.8 \
		-out /tmp/paso-sweep-reads.json -label "read-heavy leases=on candidate"
	$(GO) run ./cmd/paso-loadgen -compare-slack 4 -compare-p99-floor 50 \
		-out /tmp/paso-sweep-reads.json \
		-compare "read-heavy leases=off baseline" "read-heavy leases=on candidate"

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
