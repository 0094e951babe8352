# Verification tiers.
#
#   tier1      — the commit gate: everything builds, all tests pass —
#                including the tests of benchmark/, a module of its own
#                that imports this one's internals, so a change that
#                breaks what it uses fails here rather than in the bench
#                pipeline.
#   tier2      — the merge gate: gofmt-clean, vet clean (benchmark/ too:
#                `go vet ./...` stops at the module boundary), internal/rpc
#                still only a transport (it imports neither hostfs nor
#                gsys: the file protocol lives above it),
#                internal/core/page.go still the one owner of the page
#                lifecycle (no other non-test file of the package takes a
#                slot transition, allocates or releases a frame or hands
#                one an open offered back (pcache's Unalloc), moves
#                fileCache.frames, or moves Frame.Dirty, the dirty-page
#                counts kept beside it, or Frame.CleanAt and WroteAt),
#                one WritePages call in non-test internal/core (the
#                write-back run's flush: every host write is gathered there),
#                one synchronous .Read( and one ReadAsync( in it (the demand
#                fault, which carries its stream's window, and spanFetch:
#                every host read core makes is one of the two),
#                one host-I/O byte bound in internal/core (maxHostIO: every
#                coalesced read, open carry and gathered write stays
#                within it; the read and write caps it replaced are gone),
#                one speculation planner in internal/core/readahead.go (its
#                gate is the one reader of FS.speculate, and no other file
#                of the package reads the closed files' clean-page count,
#                the dead zone or the batch cap), one call of
#                reclaimForSpec in it (an open's head and every
#                guess reclaim through the same one), a detector slot's
#                frontier set by raIssue and by prime, the priming helper
#                a carrying fault and an open's head share, and nowhere
#                else, a file's detector slots indexed (.ra[) in
#                internal/core/ftable.go only (a slot is made by the stream
#                that writes it, streamFor, and read through stream, which
#                answers nil for a slot no stream has used),
#                internal/core/ftable.go still the
#                one owner of the file tables (no other non-test file of
#                the package names the open or closed table, their
#                indexes, the truncated-once set, or a cache's retained
#                descriptor and flags), Config.Prototype still resolved
#                in one place (one line of non-test code outside
#                internal/bench, which sets it, names .Prototype, and it is
#                inside core.New, which turns it into FS state: gpufs.go
#                passes the Config through whole and no other package
#                branches on it),
#                the full suite under the race detector (the stress/oracle tests
#                run 500 seeds concurrently, so this is where sync bugs
#                die), the bench guardrail pinning the Fig4 16K/32K
#                throughputs, daemon-scaling speedup, contention
#                speedup, and open-loop saturation throughput to
#                BENCH_6.json, mutex/block profiles harvested from the
#                contention benchmark into artifacts/, and the 4-host
#                fleet remediation demo end to end.
#   fuzz-smoke — 30s coverage-guided runs of the radix-tree fuzzer and
#                the syscall wire-frame round-trip fuzzer; CI budget, not
#                a soak. Extend -fuzztime for real hunts.
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
	@leaked=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/rpc | \
		grep -xE 'gpufs/internal/(hostfs|gsys)'); if [ -n "$$leaked" ]; then \
		echo "internal/rpc is the ring transport and may not import:"; echo "$$leaked"; exit 1; fi
	@strays=$$(grep -nE '\.(TryBeginInit|FinishInit|AbortInit|TryEvict|CancelEvict|FinishEvict)\(|cache\.(TryAllocOn|Release|Unalloc)\(|frames\.Add\(|Dirty\.(Store|Swap|CompareAndSwap)\(|(dirty|dirtyPages)\.Add\(|(CleanAt|WroteAt)\.(Store|CompareAndSwap)\(' \
		$$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/page\.go$$')); if [ -n "$$strays" ]; then \
		echo "internal/core/page.go owns the page lifecycle; these call sites bypass it:"; echo "$$strays"; exit 1; fi
	@writes=$$(grep -n 'WritePages(' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
		if [ $$(printf '%s\n' "$$writes" | grep -c .) -ne 1 ]; then \
		echo "internal/core must write to the host through one WritePages call, the run flush; found:"; echo "$$writes"; exit 1; fi
	@reads=$$(grep -n '\.Read(' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
		asyncs=$$(grep -n 'ReadAsync(' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
		if [ $$(printf '%s\n' "$$reads" | grep -c .) -ne 1 ] || [ $$(printf '%s\n' "$$asyncs" | grep -c .) -ne 1 ]; then \
		echo "internal/core must read from the host through one Read, the demand fault's, and one ReadAsync, spanFetch's; found:"; echo "$$reads"; echo "$$asyncs"; exit 1; fi
	@bounds=$$(grep -nE '^[[:space:]]*(const[[:space:]]+)?maxHostIO[[:space:]]*=' $$(ls internal/core/*.go | grep -v '_test\.go$$')); \
		old=$$(grep -rnwE 'raMaxSpanBytes|wbMaxVec' internal/core); \
		if [ $$(printf '%s\n' "$$bounds" | grep -c .) -ne 1 ] || [ -n "$$old" ]; then \
		echo "internal/core must bound every host transaction with one constant, maxHostIO; found:"; echo "$$bounds"; echo "$$old"; exit 1; fi
	@strays=$$(grep -nE '\.speculate\b|\.closedCleanPages\(|\b(raDeadPage|maxBatchFetch)\b' \
			$$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/readahead\.go$$')); \
		if [ -n "$$strays" ] || [ $$(grep -c '\.speculate\b' internal/core/readahead.go) -ne 1 ]; then \
		echo "internal/core/readahead.go's planner is the one gate, budget and clamp of every fetch ahead of demand; these lines decide elsewhere:"; echo "$$strays"; exit 1; fi
	@calls=$$(grep -nE 'reclaimForSpec\(' $$(ls internal/core/*.go | grep -v '_test\.go$$') | \
			grep -vE ':[[:space:]]*//|func \(fs \*FS\) reclaimForSpec\('); \
		if [ $$(printf '%s\n' "$$calls" | grep -c .) -ne 1 ]; then \
		echo "speculation reclaims through one call of reclaimForSpec, which the open's head and the guesses share; found:"; echo "$$calls"; exit 1; fi
	@primers=$$(awk '/^func /{fn=$$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn)} /frontierOK( =|,[^=]*=)[^=].*true/{print fn}' \
			$$(ls internal/core/*.go | grep -v '_test\.go$$') | sort -u | tr '\n' ' '); \
		if [ "$$primers" != "prime raIssue " ]; then \
		echo "a detector slot's frontier is set by raIssue and the shared priming helper (prime) only; found in:"; echo "$$primers"; exit 1; fi
	@strays=$$(grep -n '\.ra\[' $$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/ftable\.go$$')); if [ -n "$$strays" ]; then \
		echo "a file's detector slots are made and read through ftable.go's streamFor and stream only; these lines index them:"; echo "$$strays"; exit 1; fi
	@strays=$$(grep -nE '\.fds|\.byPath|\.closed\[|range [a-z.]*\.closed\b|\.closedByPath|\.truncated|keepFd|lastFlags' \
		$$(ls internal/core/*.go | grep -v -e '_test\.go$$' -e '/ftable\.go$$')); if [ -n "$$strays" ]; then \
		echo "internal/core/ftable.go owns the file tables; these lines reach past it:"; echo "$$strays"; exit 1; fi
	@reads=$$(grep -n '\.Prototype\b' $$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print) | \
		grep -v '^\./internal/bench/'); \
		if [ $$(printf '%s\n' "$$reads" | grep -c .) -ne 1 ] || \
		[ $$(awk '/^func New\(/,/^}/' internal/core/fs.go | grep -c '\.Prototype\b') -ne 1 ]; then \
		echo "core.New reads Config.Prototype once and nothing else does; found:"; echo "$$reads"; exit 1; fi
	$(GO) test -race -timeout 30m ./...
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
