# Verification tiers.
#
#   tier1      — the commit gate: everything builds, all tests pass —
#                including the tests of benchmark/, a module of its own
#                that imports this one's internals, so a change that
#                breaks what it uses fails here rather than in the bench
#                pipeline.
#   tier2      — the merge gate: gofmt-clean, vet clean (benchmark/ too:
#                `go vet ./...` stops at the module boundary), the full
#                suite under the race detector (the stress/oracle tests
#                run 500 seeds concurrently, so this is where sync bugs
#                die; the scratchpad pool (one device's launches and
#                two devices' at once), the launch's turn hand-off
#                and worker exits, the radix leaves' dirty masks, the
#                fleet's settle-on-completion path and the bounded-loads
#                routing that reads the open counts settles decrement,
#                the same bound's placement on a host's GPUs, a
#                launch taking only the jobs that have arrived by its
#                issue instant, and the checkpoint walk against
#                concurrent gwrites and gfsyncs then run 20 more times
#                at one P and at four),
#                MakeWord checked against math/rand on every index the
#                corpora use, the bench guardrail pinning the Fig4 16K/32K
#                throughputs, daemon-scaling speedup, contention
#                speedup, and open-loop saturation throughput to
#                BENCH_6.json, mutex/block profiles harvested from the
#                contention benchmark into artifacts/, and the 4-host
#                fleet remediation demo end to end. The rules of the
#                code's shape (who owns the page lifecycle, the file
#                tables, each host call and the speculation planner)
#                are rows of TestStructureCensus in census_test.go,
#                which tier1 runs.
#   fuzz-smoke — 30s coverage-guided runs of the radix-tree fuzzer, the
#                syscall wire-frame round-trip fuzzer, the checkpoint image
#                codec fuzzer and the search job's count against
#                bytes.Count; CI budget, not a soak. Extend -fuzztime for
#                real hunts.
#   stress     — the fault-injection oracle at full depth (500 seeds),
#                race-enabled, on its own for quick iteration.
#   soak       — the serving-layer soak (internal/serve): 1,000+ jobs from
#                8 tenants over 2 GPUs, race-enabled, fixed seeds; also
#                the fault and GPU-restart variants.
#   fleet      — the multi-host control plane pack on its own: the
#                300-seed fleet chaos oracle (warm migrations and cold
#                replacements in one sweep) plus the model-based
#                scheduler conformance suite, race-enabled.
#   fleet-demo — gpufs-serve -hosts 4: inject a fatal XID mid-traffic,
#                show cordon/drain/replace, fail if any admitted job is
#                lost or fault-phase throughput drops below 60% of
#                steady state.
#   migrate    — gpufs-serve -hosts 4 -migrate: cordon a healthy host
#                mid-traffic and live-migrate it (checkpoint, restore,
#                warm replacement); fail if any admitted job is lost, no
#                migration happened, or fewer than 80% of the jobs in
#                flight at the cordon finish in place on the old host.
#   bench-smoke — the Readahead policy, syscall Ordering, hot-path
#                Contention, open-loop Saturation and closed-loop Serve
#                experiments at 1/256 scale, one rep: a seconds-long CI
#                check that the bench harness, the adaptive read-ahead
#                engine, the ordering-aware transport, the lock-free
#                read path, the open-loop serving driver, and the Serve
#                table's two shapes (fault-bound, launch-bound) still run
#                end to end.

GO ?= go

.PHONY: tier1 tier2 fuzz-smoke stress bench bench-smoke soak fleet fleet-demo migrate

tier1:
	$(GO) build ./...
	$(GO) test ./...
	cd benchmark && GOFLAGS=-mod=mod GOWORK=off $(GO) test ./...

tier2:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd benchmark && GOFLAGS=-mod=mod GOWORK=off $(GO) vet ./...
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -count=20 -cpu 1,4 -run 'TestScratch|TestPad' ./internal/gpu
	$(GO) test -race -count=20 -cpu 1,4 -run 'TestDispatch|TestLaunch|TestKernelFault|TestOverlapping|TestConcurrentLaunches' ./internal/gpu
	$(GO) test -race -count=20 -cpu 1,4 -run 'TestFleetNoGoroutinePerJob|TestFleetRehomeOffTheResolvingGoroutine|TestFleetBalancedBusyHostsKeepTheirFiles|TestFleetHotFileShedsOnlyItsExcess' ./internal/fleet
	$(GO) test -race -count=20 -cpu 1,4 -run 'TestServeAffinityTieGoesToLeastLoaded|TestServeBalancedBusyGPUsKeepTheirFiles|TestServeHotFileShedsOnlyItsExcess|TestServeQueuePopsOnlyReadyJobs|TestCostLaterArrivalWaitsForItsOwnLaunch|TestCostArrivalsInsideOneOverheadShareTheNextLaunch' ./internal/serve
	$(GO) test -race -count=20 -cpu 1,4 -run 'TestForEachDirtyPage|FuzzRadixTree|TestDirtyCountFollowsTheFlag|TestRescanKeepsWhatItRereads|TestLateReopenStillHits|TestCkptNeverUndoesAReturnedGfsync|TestCkptWalkNeverTearsAPage' \
		./internal/core/radix ./internal/core
	GPUFS_MAKEWORD_FULL=1 $(GO) test -count=1 -run TestMakeWordMatchesMathRandFullRange ./internal/workloads
	GPUFS_BENCH_GUARDRAIL=1 $(GO) test -count=1 -run TestBenchGuardrail ./internal/bench
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench BenchmarkContention -benchtime 1x \
		-outputdir $(CURDIR)/artifacts \
		-mutexprofile contention-mutex.pprof \
		-blockprofile contention-block.pprof ./internal/bench
	$(GO) run ./cmd/gpufs-serve -hosts 4 >/dev/null
	$(GO) run ./cmd/gpufs-serve -hosts 4 -migrate >/dev/null

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRadixTree -fuzztime 30s ./internal/core/radix
	$(GO) test -run '^$$' -fuzz FuzzSyscallFrame -fuzztime 30s ./internal/gsys
	$(GO) test -run '^$$' -fuzz FuzzCkptImage -fuzztime 30s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz FuzzSearchCount -fuzztime 30s ./internal/serve

stress:
	$(GO) test -race -count=1 -run TestFaultStressOracle ./internal/core

soak:
	$(GO) test -race -count=1 -run 'TestServeSoak' ./internal/serve

fleet:
	$(GO) test -race -count=1 -run 'TestFleetChaosOracle$$|TestFleetModelConformance' ./internal/fleet

fleet-demo:
	$(GO) run ./cmd/gpufs-serve -hosts 4

migrate:
	$(GO) run ./cmd/gpufs-serve -hosts 4 -migrate

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-smoke:
	$(GO) run ./cmd/gpufs-bench -exp readahead -scale 0.00390625 -reps 1
	$(GO) run ./cmd/gpufs-bench -exp ordering -scale 0.00390625 -reps 1
	$(GO) run ./cmd/gpufs-bench -exp contention -scale 0.00390625 -reps 1
	$(GO) run ./cmd/gpufs-bench -exp saturation -scale 0.00390625 -reps 1
	$(GO) run ./cmd/gpufs-bench -exp serve -scale 0.00390625 -reps 1
