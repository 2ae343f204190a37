GO ?= go
BIN ?= bin

.PHONY: build test race vet fmt lint stringscheck bench-smoke examples bench benchmark cover fuzz-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full-tree race pass. A simulation is one goroutine, so what there is to
# race is the worker pool that fans whole simulations out (internal/parallel)
# and what its workers share: core's one arena (slabs — a kernel and the
# sessions, frontends, processes and contexts on it — one worker's closed
# cluster returns and another's borrows, never with a live process), the
# suite's scenario cache and trace book, and the TCP
# remoting path. -short skips the heavyweight
# experiment sweeps (guarded with testing.Short) so the whole pass stays under
# ~2 minutes while still racing the parallel-vs-sequential figure-grid
# comparison.
race:
	$(GO) test -race -short ./...
	@# The cluster tier's invariance matrix (rerun, workers 1 vs 8) raced at
	@# quick scale: the supernode runs go through the worker pool with the
	@# detector live.
	$(GO) test -race -run 'TestClusterInvarianceQuick' ./internal/cluster/

vet:
	$(GO) vet ./...

# Formatting gate: gofmt must have nothing to say outside testdata/ (the
# analyzer fixtures there are laid out for their want-comments, not for gofmt).
fmt:
	@out=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

# stringscheck: the determinism/protocol analyzer suite (DESIGN.md
# "Determinism invariants" and "Static analysis"): a standalone binary that
# typechecks the named packages against `go list -export` data and runs
# six single-package analyzers over them.
stringscheck:
	$(GO) build -o $(BIN)/stringscheck ./cmd/stringscheck

# The suite is part of the inner loop, so it carries a wall-time budget:
# the whole pass — go list, typechecking and all six analyzers — must
# finish in 60s or the target fails. A slow linter is a skipped linter.
# Findings print as file:line:col: analyzer: message.
lint: stringscheck
	@start=$$(date +%s); \
	$(BIN)/stringscheck ./... || exit 1; \
	elapsed=$$(( $$(date +%s) - start )); \
	echo "lint: clean in $${elapsed}s (budget 60s)"; \
	if [ $$elapsed -gt 60 ]; then \
		echo "lint: exceeded the 60s wall-time budget"; exit 1; \
	fi

# One iteration of every micro-benchmark: proves they still compile and run
# without paying full benchmark time. What they allocate is not read here: a
# single iteration also counts the runtime's own strays. The zero-alloc claims
# are gated by a test on the same set-ups instead: TestBenchSetupsZeroAlloc
# (timer delivery, sleep-next, backend call, codec round trip of a reply
# carrying a report); a whole request's are TestAllocBudgetPerRequest's.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkKernelDispatch|BenchmarkQueuePingPong|BenchmarkTimerDelivery|BenchmarkSleepNext|BenchmarkHeapChurn|BenchmarkSpawnExit|BenchmarkCodecRoundTrip|BenchmarkBackendCall' -benchtime=1x .
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/rpcproto/
	@# The goldens, transcripts and fresh-vs-reused checks twice in one process:
	@# the second pass runs on the slabs the first left in core's arena, so a
	@# reuse leak shows as a golden mismatch.
	$(GO) test -count=2 -run 'Golden|Transcript|Reproduce|Matches' . ./internal/core/ ./internal/experiments/
	@# The fault study at -parallel 1 and 4 must print the same table too:
	@# recovery's connections retain their frames and faults kill DST rows,
	@# and neither may reach the next cluster on the slab.
	@mkdir -p $(BIN)
	$(GO) run ./cmd/strings-bench -exp faults -pairs 1 -requests 4 -parallel 1 -csv | grep -v '^(' > $(BIN)/faults-smoke-seq.csv
	$(GO) run ./cmd/strings-bench -exp faults -pairs 1 -requests 4 -parallel 4 -csv | grep -v '^(' > $(BIN)/faults-smoke-par.csv
	diff $(BIN)/faults-smoke-seq.csv $(BIN)/faults-smoke-par.csv
	@# Sweep-engine determinism: the same small grid at -parallel 1 and 4
	@# must emit byte-identical tables (the wall-clock footer is stripped —
	@# it is the only line allowed to differ). Fig 11's horizon-cut CUDA and
	@# TFS-Rain cells leave processes live for Close to take back, and at 4
	@# workers the arena's slabs change hands between them.
	$(GO) run ./cmd/strings-bench -exp fig9 -requests 4 -parallel 1 -csv | grep -v '^(' > $(BIN)/sweep-smoke-seq.csv
	$(GO) run ./cmd/strings-bench -exp fig9 -requests 4 -parallel 4 -csv | grep -v '^(' > $(BIN)/sweep-smoke-par.csv
	diff $(BIN)/sweep-smoke-seq.csv $(BIN)/sweep-smoke-par.csv
	$(GO) run ./cmd/strings-bench -exp fig11 -requests 4 -parallel 1 -csv | grep -v '^(' > $(BIN)/fig11-smoke-seq.csv
	$(GO) run ./cmd/strings-bench -exp fig11 -requests 4 -parallel 4 -csv | grep -v '^(' > $(BIN)/fig11-smoke-par.csv
	diff $(BIN)/fig11-smoke-seq.csv $(BIN)/fig11-smoke-par.csv
	@# Fig 10 alternates the one-node baseline and the four-GPU supernode, so
	@# one slab's devices, schedulers and packers are re-initialised from one
	@# fleet to the other.
	$(GO) run ./cmd/strings-bench -exp fig10 -requests 4 -parallel 1 -csv | grep -v '^(' > $(BIN)/fig10-smoke-seq.csv
	$(GO) run ./cmd/strings-bench -exp fig10 -requests 4 -parallel 4 -csv | grep -v '^(' > $(BIN)/fig10-smoke-par.csv
	diff $(BIN)/fig10-smoke-seq.csv $(BIN)/fig10-smoke-par.csv
	@# Twenty requests overfill the bare-CUDA baseline's GPU: it must wait for
	@# memory, not fail the figure.
	$(GO) run ./cmd/strings-bench -exp fig9 -requests 20 > /dev/null
	@# Slice-placement study: a small frag grid, its CSV kept as a CI
	@# artifact. Like the sweep check above, worker count must not change
	@# a single byte of the table.
	$(GO) run ./cmd/strings-bench -exp frag -requests 6 -parallel 1 -csv | grep -v '^(' > $(BIN)/frag-smoke.csv
	$(GO) run ./cmd/strings-bench -exp frag -requests 6 -parallel 4 -csv | grep -v '^(' > $(BIN)/frag-smoke-par.csv
	diff $(BIN)/frag-smoke.csv $(BIN)/frag-smoke-par.csv

# The six examples are the documented use of the library (README): run each,
# fail on the first non-zero exit, and byte-diff its stdout against the
# expected.out beside it. All finish in virtual time, so their output is
# fixed, except remoting's: it listens on a loopback port of the kernel's
# choosing and prints the address, so it is run but not diffed. analysis
# prints where os.TempDir() put its files, so TMPDIR is pinned.
examples:
	@mkdir -p $(BIN)
	@for e in examples/*/; do \
		echo "== $$e"; TMPDIR=/tmp $(GO) run ./$$e > $(BIN)/example.out || exit 1; \
		[ $$e = examples/remoting/ ] || diff $${e}expected.out $(BIN)/example.out || exit 1; \
	done

# Full micro-benchmark pass with allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkKernelDispatch|BenchmarkQueuePingPong|BenchmarkTimerDelivery|BenchmarkSleepNext|BenchmarkHeapChurn|BenchmarkSpawnExit|BenchmarkCodecRoundTrip|BenchmarkBackendCall' -benchmem .

# Coverage gate: run the internal packages with -coverprofile and fail if
# any of the gated packages (the observability layer, seed folding, the
# worker pool, the kernel, the shard coordinator, the analysis framework, the device model, the device scheduler, the
# Affinity Mapper, the cluster tier, core, the fault injector, the
# application models, the report renderer, the experiment runners, the
# scenario text form, and the marshalled-call path: CUDA interposer, cuda
# runtime, wire protocol and executor, Context Packer, the TCP wire probe)
# drops below 85% statement coverage. The device scheduler's reference policies live
# in _test.go files and do not count. The profile lands in $(BIN)/cover.out
# for CI to upload.
cover:
	@mkdir -p $(BIN)
	$(GO) test -coverprofile=$(BIN)/cover.out ./internal/...
	$(GO) run ./cmd/covercheck -profile $(BIN)/cover.out -min 85 \
		repro/internal/trace repro/internal/sweep repro/internal/parallel \
		repro/internal/sim repro/internal/sim/shard \
		repro/internal/analysis repro/internal/gpu repro/internal/cluster \
		repro/internal/core repro/internal/cuda repro/internal/rpcproto \
		repro/internal/packer repro/internal/remoting repro/internal/devsched \
		repro/internal/balancer repro/internal/faults repro/internal/interpose \
		repro/internal/workload repro/internal/report repro/internal/experiments \
		repro/internal/scenario

# Short fuzz pass over every native fuzz target: the kernel's schedule
# against its one-heap reference, a frontend script on a fresh cluster against
# the same script on a warm arena slab after another, the wire codec, the
# framing layer, the trace encoders and the arrival and scenario text forms
# each get 10s of coverage-guided input on top of the committed corpus under
# testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKernelSchedule -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzFrontendSteps -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/rpcproto/
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/rpcproto/
	$(GO) test -run '^$$' -fuzz FuzzCallRoundTrip -fuzztime 10s ./internal/rpcproto/
	$(GO) test -run '^$$' -fuzz FuzzReplyRoundTrip -fuzztime 10s ./internal/rpcproto/
	$(GO) test -run '^$$' -fuzz FuzzParseJSONL -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzSpanEncode -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzEventEncode -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzOpenArrivalSpec -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzScenarioRoundTrip -fuzztime 10s ./internal/scenario/

# The repo benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads at the shortest accepted run length, results and the per-layer
# ledger under benchmark/out/. Fails on any conservation violation or any
# sim_digest disagreement between passes or between 1 and nproc workers.
benchmark:
	$(GO) run ./benchmark -workload all -seconds 3

# Go lines outside benchmark/ and testdata/, the size figures ROADMAP asks
# every PR to report (before → after) in CHANGES.md: non-test files on the
# first line, _test.go files on the second.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		-exec cat {} + | wc -l
	@find . -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
		-exec cat {} + | wc -l
