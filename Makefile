GO ?= go

.PHONY: build test race race-all fuzz-smoke vet fmt staticcheck govulncheck lint allocgate bench bench-parallel bench-virtualtime bench-dataplane bench-chaos-dataplane bench-scale bench-wire race-dataplane timecheck test-experiments profile chaos check print-staticcheck-version print-govulncheck-version

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-all is the uncached full-tree race pass: every package, -count=1.
# The chaos, dataplane and eval suites exercise real goroutine
# interleavings, so a cached "ok" proves nothing about a scheduler or
# locking change; CI runs this as its own job (see ci.yml).
race-all:
	$(GO) test -race -count=1 ./...

# fuzz-smoke gives each decoder of untrusted bytes a short budget on
# every run: ten seconds of FuzzMessageCodec (the wire codec) and of
# FuzzParseAddr (the join IP string) over the corpus plus fresh
# mutations. Deep fuzzing is a background activity; this gate just keeps
# the decoders honest against the easy classes of malformed input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzMessageCodec' -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz 'FuzzParseAddr' -fuzztime 10s ./internal/bgp/

vet:
	$(GO) vet ./...

# fmt fails when any file needs gofmt, so formatting drift cannot land.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "gofmt: the following files need formatting (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi; \
	echo "gofmt: clean"

# staticcheck runs when the tool is installed and is skipped (with a
# notice) otherwise, so the gate works in minimal containers too. CI
# installs a pinned version (see .github/workflows/ci.yml), so the gate
# always runs there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Pinned tool versions, shared with CI so local and CI runs agree.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# print-*-version let CI read the pins above without duplicating them.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

# govulncheck scans dependencies for known vulnerabilities. The vuln DB
# lives at vuln.go.dev, so the target downgrades to a notice when the
# tool is missing or the network is unreachable (offline containers).
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		out=$$(govulncheck ./... 2>&1); st=$$?; \
		if [ $$st -ne 0 ] && echo "$$out" | grep -qiE 'dial|connection|lookup|timeout|proxy|no such host'; then \
			echo "govulncheck: vulnerability DB unreachable; skipping (offline)"; \
		elif [ $$st -ne 0 ]; then \
			echo "$$out"; exit $$st; \
		else \
			echo "$$out"; \
		fi; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# lint runs asaplint, the repo's invariant gate (DESIGN.md §11, §16):
# seven per-package analyzers — time model (schedtime), seed
# reproducibility (seededrand), scheduler-accounted goroutines
# (schedgo), deterministic map iteration in output paths (maporder),
# the snapshot-probe-commit locking discipline (lockio), transport pool
# ownership (poolreturn), task/timer accounting (taskleak) — plus three
# whole-program analyzers: protocol-enum/codec drift (protosync),
# lock-order cycles (lockorder) and retry error classification
# (errclass). Suppress a finding with a justified
# `//lint:allow <analyzer> <why>` comment; see README.md.
lint:
	$(GO) run ./cmd/asaplint ./internal/...

# allocgate re-runs the allocation-regression tests (TestEncodeAllocs,
# TestDecodeAllocs*, TestClusterStatsBatchAllocs, TestParseAddrAllocs,
# TestClockAllocs) in a plain build: the race runs above skip them
# because -race instruments allocations, so without this target `check`
# would never enforce the zero-alloc wire path (DESIGN.md §15), the
# allocation-free join address parse or the clock's task hand-off cost
# (DESIGN.md §10).
allocgate:
	$(GO) test -run 'Allocs' -count=1 ./internal/transport/ ./internal/netmodel/ ./internal/bgp/ ./internal/sim/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.2s .

# bench-parallel measures the parallel evaluation harness against its
# single-worker baseline (the output is identical by construction; the
# ratio is pure wall-clock speedup and scales with core count).
bench-parallel:
	$(GO) test -run '^$$' -bench 'ComparisonSerial|ComparisonParallel|RoutingStudySerial|RoutingStudyParallel' -benchtime 5x -count 3 .

# bench-virtualtime measures the wall-clock cost of the churn and
# stabilization experiments under the injected virtual clock (one
# iteration = one full two-arm experiment). Before the scheduler
# refactor the churn experiment alone slept ~8 s of real time; the
# tracked numbers live in results/BENCH_virtualtime.md.
bench-virtualtime:
	$(GO) test -run '^$$' -bench 'ChurnVirtualTime|StabilizationVirtualTime' -benchtime 5x -count 3 .

# bench-dataplane measures the voice data plane (DESIGN.md §12):
# datagram throughput through the in-memory packet network (packets/s)
# and the full 4x4 NAT traversal matrix, which reports punch success
# rate and p99 punch latency as benchmark metrics. The latency metrics
# run on the virtual clock and are identical on every machine; CI
# publishes the output as the BENCH_dataplane.json artifact.
bench-dataplane:
	$(GO) test -run '^$$' -bench 'DataplaneVoiceThroughput|DataplaneTraversalMatrix' -benchtime 1000x -count 3 .

# bench-chaos-dataplane sweeps the 4x4 NAT traversal matrix under seeded
# packet loss (5%/15%/30%), reporting the punch-success degradation
# curve, relay-fallback fraction and p99 establishment latency — all on
# the virtual clock, so everything except ns/op is deterministic. CI
# publishes the output as the BENCH_chaosdataplane.json artifact.
bench-chaos-dataplane:
	$(GO) test -run '^$$' -bench 'ChaosDataplaneTraversal' -benchtime 20x -count 3 .

# bench-scale climbs the million-node deployment ladder (DESIGN.md §14):
# 10^4, 10^5 and 10^6 live protocol nodes joining, churning and calling
# on the virtual clock, sharded across the conservative-lookahead
# runner. Reports events/sec, bytes-per-node, peak RSS and the fig. 17
# relay-quality extension per rung into BENCH_scale.json; protocol
# outcomes are byte-identical for any -parallel value. SCALE_NODES
# overrides the ladder ceiling (CI uses 100000 to stay under the job
# clock; the tracked full-ladder numbers live in
# results/BENCH_scale.json).
SCALE_NODES ?= 1000000
bench-scale:
	$(GO) run ./cmd/asapsim -scale -nodes $(SCALE_NODES) -parallel 4 -benchout BENCH_scale.json

# bench-wire measures the zero-alloc wire path (DESIGN.md §15): binary
# codec encode/decode against the gob encoding it replaced (msgs/s and
# allocs/op), the framed loopback-TCP round trip, and the batched probe
# protocol's roundtrips-per-tick economy on the virtual clock. CI
# publishes the output as the BENCH_wire.json artifact; the tracked
# numbers live in results/BENCH_wire.json.
bench-wire:
	$(GO) test -run '^$$' -bench 'Wire' -benchtime 10000x -count 3 .

# race-dataplane runs the media-plane packages (transport, NAT
# emulation, session monitoring) under the race detector — the layers
# that juggle keepalive timers, re-establishment and relay expiry
# concurrently.
race-dataplane:
	$(GO) test -race -count=1 ./internal/transport/... ./internal/nat/... ./internal/session/...

# timecheck is kept as an alias for muscle memory: the old grep gate was
# replaced by the schedtime analyzer in asaplint, which also catches
# aliased time imports, time.Now/time.Since, and wrapped calls the grep
# missed. The same exemptions apply (internal/sim/wall.go, _test.go).
timecheck: lint

# test-experiments runs the virtual-time experiment suite with a tight
# timeout: everything in internal/eval runs on the simulated clock, so
# a wall-clock stall is a determinism bug, not a slow test.
test-experiments:
	$(GO) test -race -count=1 -timeout 60s ./internal/eval/

# profile regenerates the small-profile comparison figures with CPU and
# heap profiling enabled; inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/asapsim -profile small -figs 11,13,15,18 -cpuprofile cpu.prof -memprofile mem.prof

# chaos runs the seeded fault-injection soak under the race detector:
# drop probability, a bootstrap outage, a surrogate kill and a relay
# failure burst over the in-memory transport.
chaos:
	$(GO) test -race -run 'TestChaosSoak' -count=1 -v ./internal/core/

# check is the CI gate: everything must build, be gofmt-clean, vet and
# staticcheck clean, honor the asaplint invariants (time model, seeded
# randomness, scheduler-accounted goroutines, deterministic map
# iteration, lock/I/O discipline, pool ownership, task/timer
# accounting, protocol-enum sync, lock ordering, retry error
# classification), pass the full test suite under the race detector,
# hold the zero-alloc wire path, and carry no known-vulnerable
# dependencies.
check: build vet fmt staticcheck lint race allocgate govulncheck
