# Correctness gate for the SPEAr repo. `make check` is the bar every
# change must clear locally and in CI: compile, vet, gofmt and the source
# guards, the full test suite under the race detector, and the
# crash-recovery integration suite (also race-enabled).

GO ?= go

.PHONY: check build vet lint test race recovery obs obs-scrape fuzz loc bench-smoke bench-adaptive e2e-dist

check: build vet lint race recovery obs

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The source guards are root tests over one parse and one type-check of
# every non-test file (DESIGN.md §9.1), each import of the module
# resolved to its checked package and the standard library stubbed, so
# that a symbol is matched by its object, not its name: five checks
# (global rand in library code, goroutine discipline, wall-clock use in
# event-time code and the engine, float equality, dropped codec/spill
# errors) and five surface guards (reached symbols, methods and fields,
# unsafe, config fields, DESIGN references, plan fields). A finding
# stays only with an allowlist entry that gives a reason, and an entry
# that excuses nothing fails. What a tuple costs on the hot paths,
# the lock-free contracts and the flate writer pool are tests, not
# guards: their gates run in `race`. Before them, gofmt: any file
# `gofmt -l` lists fails the target.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -count=1 -run '^(TestRepoClean|TestEveryExportedSymbolIsReached|TestUnsafeStaysInOneFile|TestEveryConfigFieldIsSet|TestDesignReferencesResolve|TestPlanFields)$$' .

test:
	$(GO) test ./...

# The link's write side changes hands between goroutines (senders, the
# credit sender, a reconnect); a source's pump holds the runs it drains
# across several receives before it gives them back to the spout's
# pool; and a shard's value slabs change hands between its link reader,
# which decodes into them, and its workers, which give them back. Those
# tests run ten times over so that the detector sees more than one
# interleaving. MemStore's blocks change hands between segments, and its
# concurrent Get/Delete/Store test runs five times; so do the spill
# plane's tests, whose fetch and write tasks change hands between Get
# callers and the plane's workers.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestLink|TestPump' ./internal/transport/
	$(GO) test -race -count=10 -run 'TestDistributedLoopbackIdentity' .
	$(GO) test -race -count=5 ./internal/storage
	$(GO) test -race -count=5 ./internal/spill

# Crash-recovery integration suite: fault injection at every
# checkpoint-protocol seam, run under the race detector (the workers'
# snapshots and the coordinator's commit run concurrently). A worker
# runs one checkpoint protocol (checkpoint.WorkerHooks) in-process and
# on a shard node, so the two loopback shard tests that take barriers
# and snapshots over the wire run here too.
recovery:
	$(GO) test -race -run 'TestCrashRecovery|TestRecovery|TestCoordinator' ./internal/checkpoint/
	$(GO) test -race -run 'TestCheckpoint|TestDistributedBarriersOverWire|TestDistributedLoopbackIdentity$$' .

# The telemetry system: the obs package (worker bundles — the gauge,
# histogram and Summary tests that came with them run here under -race
# too — golden snapshot/exposition, server lifecycle, trace ring), the
# controller's tick, the end-to-end mid-run scrape test, and the root
# package's adaptive tests, race-enabled
# (the server and the controller's tick snapshot concurrently with the
# engine's writers, and the controller's escalation to shedding reads
# the fill of hops bounded at about 1 K tuples).
obs:
	$(GO) test -race ./internal/obs/
	$(GO) test -race ./internal/control/
	$(GO) test -race -run 'TestObserve|TestAdaptive' .

# Scrape gate: run a real query with -serve and the async spill plane
# live, GET /metrics mid-run, and fail unless every family of
# obs.Families — the one table the exposition is written from — is
# served (what CI runs).
obs-scrape:
	$(GO) run ./cmd/spear-demo -dataset dec -tuples 100000 -scrapecheck \
		-spillworkers 2

# Short fuzz smoke for the binary codecs beyond their checked-in
# corpora: the tuple package's value codec and column image, the
# checkpoint snapshot codecs (manifest, sampling state, manager
# restore), the compressed spill chunk codec, the transport frame codec
# (and the column image its batch frames carry), and the column batch's
# projection of a run.
fuzz:
	$(GO) test ./internal/tuple -run='^$$' -fuzz=FuzzTupleCodec -fuzztime=10s
	$(GO) test ./internal/tuple -run='^$$' -fuzz=FuzzColumnsCodec -fuzztime=10s
	$(GO) test ./internal/col -run='^$$' -fuzz=FuzzColumnBatch -fuzztime=10s
	$(GO) test ./internal/checkpoint -run='^$$' -fuzz=FuzzManifestCodec -fuzztime=10s
	$(GO) test ./internal/sample -run='^$$' -fuzz=FuzzSampleRestore -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzManagerRestore -fuzztime=10s
	$(GO) test ./internal/spill -run='^$$' -fuzz=FuzzChunkCodec -fuzztime=10s
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzFrameCodec -fuzztime=10s

# Non-test lines of Go per package under internal/ and cmd/ and their
# sum, then the root package (package spear) and examples/, and the sum
# of all: the "non-test lines" every ROADMAP item is judged by, counted
# the same way in every PR (wc -l, comments and blank lines included).
# Last, the guard code: the root guard test files, fixtures aside.
GUARDS = lint_test.go reached_test.go config_fields_test.go unsafe_test.go design_refs_test.go plan_test.go
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec dirname {} + | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@a=$$(find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l); \
	r=$$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	e=$$(find examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	printf '%6d internal/ + cmd/\n%6d . (package spear)\n%6d examples\n%6d total\n' $$a $$r $$e $$((a + r + e))
	@printf '%6d guard code (root guard tests, fixtures aside)\n' $$(cat $(GUARDS) | wc -l)

# The benchmark (benchmark/, a module of its own that `go build ./...`
# does not reach): its reference-checker tests and -quick pass, and a
# vet of the layer probes behind their build tag. A probe that stops
# compiling after a refactor of internal/ only turns its metrics to
# null in a run; this is where it fails instead (~3 s). Then one
# iteration of the two ingest-overlap benchmarks of internal/core, of
# internal/spe's BenchmarkHop, of internal/transport's batch-frame
# codec pair and grouped-result encoder, of internal/core's
# BenchmarkArchiveStore (the archive's write path into a MemStore) and
# BenchmarkStormFire (the Storm baseline's fire at Fig. 9's five window
# sizes), and of internal/tuple's
# BenchmarkAppendColumns / BenchmarkDecodeColumns (the column image by
# Ts delta width), so they keep compiling and running; their numbers
# come from paired binaries (EXPERIMENTS.md), never from here. Last,
# the spear-bench CLI: Fig. 8b at scale 0.002 (well under a second),
# and an unknown -experiment must exit 2 (`go run` would turn any
# failure into 1, so that check runs a built binary).
bench-smoke:
	cd benchmark && $(GO) test ./... && $(GO) vet -tags layerprobe ./...
	$(GO) test ./internal/core -run '^$$' -bench 'IngestOverlap|BenchmarkArchiveStore|BenchmarkStormFire|BenchmarkFallbackFire' -benchtime 1x -benchmem
	$(GO) test ./internal/spe -run '^$$' -bench 'BenchmarkHop|BenchmarkFusedChain' -benchtime 1x -benchmem
	$(GO) test ./internal/transport -run '^$$' -bench 'BenchmarkDecodeFrame|BenchmarkAppendBatch|BenchmarkAppendResult' -benchtime 1x -benchmem
	$(GO) test ./internal/tuple -run '^$$' -bench 'BenchmarkAppendColumns|BenchmarkDecodeColumns' -benchtime 1x -benchmem
	$(GO) run ./cmd/spear-bench -experiment fig8b -scale 0.002
	@d=$$(mktemp -d) && $(GO) build -o $$d/spear-bench ./cmd/spear-bench && \
		{ $$d/spear-bench -experiment nosuch 2>/dev/null; s=$$?; rm -rf $$d; \
		if [ $$s -ne 2 ]; then echo "spear-bench -experiment nosuch exited $$s, want 2"; exit 1; fi; }

# Adaptive accuracy controller: a 10s stream with an 8x load spike over
# a 10ms-per-write archive store, fixed budget vs LatencySLO-driven
# controller, writing BENCH_adaptive.json (acceptance: adaptive p95 <
# fixed p95; fixed misses the 150ms SLO at burst p95; adaptive holds it
# over the late burst; realized per-window error within the reported
# contract at ≥ the confidence level, every rep — all enforced in-run).
bench-adaptive:
	$(GO) run ./cmd/spear-bench -experiment adaptive -benchjson BENCH_adaptive.json

# Distributed end-to-end gate: the real multi-process path. The
# 2-process loopback identity + kill-one-node recovery tests (re-exec
# shard subprocesses over TCP), then the spear-demo multi-process mode.
e2e-dist:
	$(GO) test -race -run 'TestDistributed' -v .
	$(GO) run ./cmd/spear-demo -dataset dec -tuples 100000 -nodes 2
