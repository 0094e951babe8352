package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/wrapfs"
)

// faultHarness is newHarness plus an injector wired into every layer and a
// deeper RPC retry budget: with per-attempt failure odds capped at ~0.24
// (drop + transient), 12 attempts drive per-op give-up below 1e-7, so the
// workload's must-succeed ops (open, truncate) effectively never exhaust.
type faultHarness struct {
	*harness
	inj *faults.Injector
}

func newFaultHarness(t *testing.T, opt Options, fcfg faults.Config, shards, workers int) *faultHarness {
	t.Helper()
	host := hostfs.New(rigHost)
	layer := wrapfs.New(host)
	bus := pcie.New(rigBus, host.MemBus())
	rcfg := rigRPC
	rcfg.MaxAttempts, rcfg.Shards, rcfg.Workers = 12, shards, workers
	server := rpc.NewServer(rcfg, layer)

	inj := faults.New(fcfg)
	server.SetFaultInjector(inj)
	host.SetFaultInjector(inj)
	bus.SetFaultInjector(inj)

	h := &harness{host: host, layer: layer, server: server}
	dev := gpu.New(gpu.Config{
		ID: 0, MPs: opt.MPsPerGPU, BlocksPerMP: 2,
		MemBytes:     opt.BufferCacheBytes * 2,
		MemBandwidth: rigDevMemBandwidth,
		Flops:        1e9, ScratchpadBytes: 48 << 10,
	})
	link := bus.NewLink(0, dev.MemBandwidthResource(), rigDevMemBandwidth)
	fs, err := New(0, opt, server.NewClient(0, link), dev.Mem)
	if err != nil {
		t.Fatal(err)
	}
	h.devs = append(h.devs, dev)
	h.fss = append(h.fss, fs)
	return &faultHarness{harness: h, inj: inj}
}

// TestFaultStressOracle is the oracle test run under randomized fault
// schedules. Each seed derives both the fault probabilities and the op
// sequence, so every run is reproducible bit-for-bit. The contract under
// faults is weaker than the fault-free oracle's — individual reads, writes
// and fsyncs may fail — but never silently wrong:
//
//   - whatever byte count an op DOES report must be truthful: a read's
//     returned prefix matches the model, a failed write applied exactly
//     its returned prefix;
//   - a gfsync that reports success really made the host identical to the
//     local view;
//   - once faults stop, one gfsync round drains all damage (deferred
//     write-back errors surface at most once) and the host converges to
//     the model byte-for-byte.
//
// Invalidation is part of the contract, not noise: a lost generation
// refresh or a timed-out Validate legitimately discards the cache at the
// next gopen (close-to-open consistency forfeits unsynced writes), which
// the model detects via the closed-table-reuse counter and mirrors by
// resetting to host content.
func TestFaultStressOracle(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	totals := newStressTotals(t, seeds)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runFaultStress(t, seed, 1, 1, totals)
		})
	}
}

// stressTotals sums over a suite's seeds what no one seed is sure to reach
// and the suite must, or it is vacuous: injected faults, pages a confirmed
// stream's speculation reclaimed from a closed file (a failed read can keep a
// seed's stride from confirming), gfsyncs that gathered a write-back from more
// than one page (eviction can take a run's pages before its gfsync), and pages the
// neighbour reader's demand faults carried in their stream's window (a failed
// or resident neighbour page can leave a seed's faults one page each).
type stressTotals struct {
	injected, specReclaimed, gathered, carried atomic.Int64
}

func newStressTotals(t *testing.T, seeds int) *stressTotals {
	s := &stressTotals{}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if s.injected.Load() == 0 {
			t.Errorf("no faults fired across %d seeds; the stress test is vacuous", seeds)
		}
		if s.specReclaimed.Load() == 0 {
			t.Errorf("speculation reclaimed no closed page across %d seeds; the neighbour reader no longer reaches it", seeds)
		}
		if s.gathered.Load() == 0 {
			t.Errorf("no gfsync gathered a write-back from more than one page across %d seeds; the writer's runs no longer reach a gfsync", seeds)
		}
		if s.carried.Load() == 0 {
			t.Errorf("no demand fault carried its stream's window across %d seeds; the neighbour reader's faults no longer continue its stream", seeds)
		}
	})
	return s
}

// TestFaultStressOracleSharded reruns the full oracle on a sharded
// transport with a parallel host service. Every retry, dedup and timeout
// decision now happens per ring, so this pins the layered stack to the
// same correctness contract as the single-ring prototype: a fault burst on
// one shard must never corrupt state reached through another.
func TestFaultStressOracleSharded(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	totals := newStressTotals(t, seeds)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runFaultStress(t, seed, 4, 4, totals)
		})
	}
}

func runFaultStress(t *testing.T, seed int64, shards, workers int, totals *stressTotals) {
	rng := rand.New(rand.NewSource(seed))
	fcfg := faults.Config{
		Seed:                seed,
		RPCPollDelayProb:    rng.Float64() * 0.30,
		RPCDropResponseProb: rng.Float64() * 0.12,
		RPCDupResponseProb:  rng.Float64() * 0.15,
		RPCTransientProb:    rng.Float64() * 0.12,
		HostShortReadProb:   rng.Float64() * 0.40,
		HostReadEIOProb:     rng.Float64() * 0.05,
		HostWriteEIOProb:    rng.Float64() * 0.05,
		HostFsyncEIOProb:    rng.Float64() * 0.10,
		DiskStallProb:       rng.Float64() * 0.10,
		DMAStallProb:        rng.Float64() * 0.10,
		DMADegradeProb:      rng.Float64() * 0.10,
		// BadSectorRate stays 0: persistent sectors would make
		// convergence impossible by design, not by bug.
	}

	opt := defaultOpt()
	opt.BufferCacheBytes = 6 * opt.PageSize // constant eviction pressure
	// The adaptive read-ahead engine and the background cleaner run hot in
	// this suite on purpose: speculation racing demand faults through a
	// 6-frame pool, and cleaner write-backs racing injected write errors,
	// are exactly the interleavings that bend the claim/detach and
	// deferred-error protocols.
	// History rides along (ISSUE 9): the open-time pre-warm on reopen
	// races demand faults and injected read errors through the same
	// 6-frame pool, and the open/close cycles below keep recording
	// profiles and seeding from them while the tiny cache immediately
	// evicts their pages.
	// The oracle runs what ships. One seed in four runs it on a one-MP
	// device, so its single free list takes the same fault schedules, and one
	// in four runs the paper's prototype (copying reads, write-back under
	// eviction only); the seed picks, so a failing seed replays.
	switch seed % 4 {
	case 0:
		opt.MPsPerGPU = 1
	case 2:
		opt.Prototype = true
	}
	h := newFaultHarness(t, opt, fcfg, shards, workers)
	fs := h.fss[0]
	defer func() {
		totals.injected.Add(h.inj.TotalInjected())
		totals.specReclaimed.Add(fs.specReclaimed.Load())
	}()
	// fsync is gfsync, tallying for the suite a gfsync that gathered a
	// write-back from more than one page.
	fsync := func(b *gpu.Block, fd int) error {
		before := tallyWrites(h.harness, fs)
		err := fs.Fsync(b, fd)
		if before.gathered(tallyWrites(h.harness, fs), opt.PageSize) {
			totals.gathered.Add(1)
		}
		return err
	}

	const maxFile = 200 << 10 // ~12 pages, double the cache
	noise := make([]byte, 96<<10)
	rand.New(rand.NewSource(seed ^ 0x6e015e)).Read(noise)
	closed := pattern(3*int(opt.PageSize), byte(seed))
	neighbour := pattern(10*int(opt.PageSize), byte(seed>>8))
	h.inj.SetEnabled(false)
	h.write(t, "/stress", nil)
	h.write(t, "/closed", closed)
	h.write(t, "/neighbour", neighbour)
	if shards > 1 {
		h.write(t, "/noise", noise)
	}
	h.inj.SetEnabled(true)

	model := []byte{} // expected host view after a full sync
	var gpuSize int64 // expected fc.size: partial writes do NOT extend it
	open := false
	var fd int

	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf(format, args...))
	}
	defer func() {
		if t.Failed() {
			t.Logf("fault mix: %s", h.inj.FormatCounts())
			start := len(log) - 60
			if start < 0 {
				start = 0
			}
			for _, l := range log[start:] {
				t.Log(l)
			}
		}
	}()

	// ensureOpen reopens the file and reconciles the model with whatever
	// the consistency layer decided. If the reopen was NOT served from the
	// closed file table (first open, external modification, or a
	// fault-starved validation), the cache was discarded and the local
	// view legally reset to host content.
	ensureOpen := func(b *gpu.Block) error {
		if open {
			return nil
		}
		reuses := fs.closedReuses.Load()
		var err error
		fd, err = fs.Open(b, "/stress", O_RDWR)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		open = true
		if fs.closedReuses.Load() == reuses {
			h.inj.SetEnabled(false)
			model = append([]byte(nil), h.read(t, "/stress")...)
			gpuSize = int64(len(model))
			h.inj.SetEnabled(true)
			logf("   (cache invalidated: model reset to %d host bytes)", len(model))
		}
		return nil
	}

	// noiseReader is block 1's body on sharded runs: a read-only workload
	// against an immutable file, riding a different ring shard (lane 1)
	// than the oracle block (lane 0). It shares the page cache, the ring
	// seq/dedup spaces, and the fault schedule with block 0, so any
	// cross-shard leakage — a dedup hit against another ring's sequence
	// numbers, a completion matched to the wrong frame — shows up as a
	// content mismatch here or as model divergence in the oracle.
	//
	// The two blocks are serialized in REAL time (block 0 waits for the
	// noise phase): the oracle asserts host == model immediately after a
	// successful gfsync, which only holds while block 0 is the sole
	// concurrent evictor of its dirty pages — gfsync legitimately skips
	// pages mid-eviction by another block (Table 1 exempts concurrently
	// accessed pages). Their VIRTUAL-time windows still overlap fully, so
	// both rings and daemon workers interleave on the calendar.
	noiseReader := func(b *gpu.Block) error {
		nrng := rand.New(rand.NewSource(seed ^ 0x5eed))
		fd, err := fs.Open(b, "/noise", O_RDONLY)
		if err != nil {
			return fmt.Errorf("noise open: %w", err)
		}
		for i := 0; i < 80; i++ {
			off := nrng.Intn(len(noise))
			n := nrng.Intn(12<<10) + 1
			buf := make([]byte, n)
			got, gerr := fs.Read(b, fd, buf, int64(off))
			if got > len(noise)-off {
				return fmt.Errorf("noise read %d: %d bytes at %d runs past EOF %d", i, got, off, len(noise))
			}
			if !bytes.Equal(buf[:got], noise[off:off+got]) {
				return fmt.Errorf("noise read %d: content mismatch at %d+%d (err=%v)", i, off, got, gerr)
			}
		}
		// An injected give-up on close is tolerated; the file is read-only
		// so nothing is lost.
		_ = fs.Close(b, fd)
		return nil
	}

	// neighbourReader is block 0's prelude: it leaves /closed's three pages
	// retired and clean, then reads /neighbour page by page, so the fault on
	// its second page carries the stream's window and confirms the stride as
	// the last free frame goes, and the stream's speculation must reclaim
	// /closed's pages — under the same faults, racing a failed fill's abort
	// and the cleaner. Any prefix a read returns must be
	// truthful; a failed read or close is tolerated, both files being
	// read-only.
	neighbourReader := func(b *gpu.Block) error {
		read := func(path string, want []byte, chunk int64) error {
			fd, err := fs.Open(b, path, O_RDONLY)
			if err != nil {
				return nil // an injected give-up: nothing was read
			}
			buf := make([]byte, chunk)
			for off := int64(0); off < int64(len(want)); off += chunk {
				got, carried, err := carriedRead(fs, b, fd, buf, off)
				totals.carried.Add(carried)
				if !bytes.Equal(buf[:got], want[off:off+int64(got)]) {
					return fmt.Errorf("%s: content mismatch at %d+%d (err=%v)", path, off, got, err)
				}
			}
			_ = fs.Close(b, fd)
			return nil
		}
		if err := read("/closed", closed, int64(len(closed))); err != nil {
			return err
		}
		return read("/neighbour", neighbour, opt.PageSize)
	}

	blocks := 1
	if shards > 1 {
		blocks = 2
	}
	noiseDone := make(chan struct{})
	h.runBlocks(t, 0, blocks, func(b *gpu.Block) error {
		if b.Idx == 1 {
			defer close(noiseDone)
			return noiseReader(b)
		}
		if blocks > 1 {
			<-noiseDone
		}
		if err := neighbourReader(b); err != nil {
			return err
		}
		for step := 0; step < 140; step++ {
			switch op := rng.Intn(100); {
			case op < 35: // gwrite: tolerated; applies exactly its returned prefix
				if err := ensureOpen(b); err != nil {
					return err
				}
				ps := int(opt.PageSize)
				off, n := writeExtent(rng, maxFile, 8<<10, int(gpuSize), ps)
				if rng.Intn(4) == 0 {
					// A run of two to four adjacent whole pages, which
					// write-back gathers into one write.
					off, n = rng.Intn(maxFile/ps-3)*ps, (2+rng.Intn(3))*ps
				}
				data := make([]byte, n)
				rng.Read(data)
				got, err := fs.Write(b, fd, data, int64(off))
				logf("%d: write off=%d n=%d -> got=%d err=%v", step, off, n, got, err)
				if err != nil && got > n {
					return fmt.Errorf("step %d: failed write reported %d of %d bytes", step, got, n)
				}
				if err == nil && got != n {
					return fmt.Errorf("step %d: successful write reported %d of %d bytes", step, got, n)
				}
				if got > 0 {
					if off+got > len(model) {
						grown := make([]byte, off+got)
						copy(grown, model)
						model = grown
					}
					copy(model[off:], data[:got])
				}
				if err == nil && int64(off+n) > gpuSize {
					gpuSize = int64(off + n)
				}

			case op < 70: // gread: tolerated; any returned prefix must be truthful
				if err := ensureOpen(b); err != nil {
					return err
				}
				if len(model) == 0 {
					continue
				}
				off := rng.Intn(len(model))
				n := rng.Intn(16<<10) + 1
				buf := make([]byte, n)
				got, err := fs.Read(b, fd, buf, int64(off))
				logf("%d: read off=%d n=%d -> got=%d err=%v", step, off, n, got, err)
				want := int(gpuSize) - off
				if want > n {
					want = n
				}
				if want < 0 {
					want = 0
				}
				if err == nil && got != want {
					return fmt.Errorf("step %d: read length %d, want %d (off %d, gpuSize %d)",
						step, got, want, off, gpuSize)
				}
				if err != nil && got > want {
					return fmt.Errorf("step %d: failed read reported %d > reachable %d", step, got, want)
				}
				if !bytes.Equal(buf[:got], model[off:off+got]) {
					return fmt.Errorf("step %d: read content mismatch at %d+%d", step, off, got)
				}

			case op < 78: // gfsync: success must mean host == local view
				if err := ensureOpen(b); err != nil {
					return err
				}
				err := fsync(b, fd)
				logf("%d: fsync err=%v", step, err)
				if err != nil {
					continue // deferred write-back or injected failure: retry later
				}
				h.inj.SetEnabled(false)
				host := h.read(t, "/stress")
				h.inj.SetEnabled(true)
				if !bytes.Equal(host, model) {
					i := 0
					for i < len(host) && i < len(model) && host[i] == model[i] {
						i++
					}
					return fmt.Errorf("step %d: host diverges after successful gfsync at byte %d (sizes %d/%d)",
						step, i, len(host), len(model))
				}

			case op < 82: // gfsync_disk: stable-storage flush, failure tolerated
				if err := ensureOpen(b); err != nil {
					return err
				}
				err := fs.FsyncDisk(b, fd)
				logf("%d: fsyncDisk err=%v", step, err)

			case op < 88: // gclose: only a deferred write-back error may surface
				if open {
					err := fs.Close(b, fd)
					logf("%d: close err=%v", step, err)
					open = false
				}

			case op < 94: // gftruncate: must-succeed (retry budget absorbs faults)
				if err := ensureOpen(b); err != nil {
					return err
				}
				size := rng.Intn(maxFile)
				logf("%d: truncate size=%d", step, size)
				if err := fs.Ftruncate(b, fd, int64(size)); err != nil {
					return fmt.Errorf("step %d truncate: %w", step, err)
				}
				if size < len(model) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}
				gpuSize = int64(size)

			default: // external host write while closed on the GPU
				if open {
					continue
				}
				n := rng.Intn(maxFile/2) + 1
				data := make([]byte, n)
				rng.Read(data)
				logf("%d: external write n=%d", step, n)
				h.inj.SetEnabled(false)
				h.write(t, "/stress", data)
				h.inj.SetEnabled(true)
				// The next gopen sees a new generation and invalidates;
				// ensureOpen's reuse check resets the model to match.
			}
		}

		// Recovery phase: faults stop, and the system must converge.
		h.inj.SetEnabled(false)
		if err := ensureOpen(b); err != nil {
			return err
		}
		// The first clean gfsync may surface one deferred write-back error
		// from an earlier failed eviction — POSIX errno semantics — but it
		// still flushes everything, so the second must be silent.
		if err := fsync(b, fd); err != nil {
			logf("recovery: first fsync drained deferred error: %v", err)
			if err := fsync(b, fd); err != nil {
				return fmt.Errorf("recovery: deferred error surfaced twice: %w", err)
			}
		}
		if err := fsync(b, fd); err != nil {
			return fmt.Errorf("recovery: clean fsync failed: %w", err)
		}
		if err := fs.Close(b, fd); err != nil {
			return fmt.Errorf("recovery: clean close failed: %w", err)
		}
		return nil
	})

	host := h.read(t, "/stress")
	if !bytes.Equal(host, model) {
		i := 0
		for i < len(host) && i < len(model) && host[i] == model[i] {
			i++
		}
		t.Fatalf("final host content diverges from model at byte %d: %d vs %d bytes", i, len(host), len(model))
	}
	if fs.Cache().Reclaimed() == 0 {
		t.Fatalf("stress run exerted no eviction pressure; shrink the cache")
	}
	h.checkDirtyCounts(t)
}
